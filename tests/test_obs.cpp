// Telemetry layer (src/obs): span nesting, counter aggregation across
// threads, trace-JSON well-formedness, thread-count-invariant simulator
// counters, and the zero-allocation guarantee of the disabled hot path.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "extract/critical_area.h"
#include "extract/extractor.h"
#include "flow/experiment.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "layout/place_route.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"
#include "obs/telemetry.h"
#include "parallel/parallel_for.h"
#include "switchsim/switch_fault_sim.h"

namespace {

using namespace dlp;

// ---- global allocation counter (for the no-op overhead test) -------------

std::atomic<long long> g_allocs{0};

}  // namespace

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::reset();
        obs::set_enabled(true);
    }
    void TearDown() override {
        obs::set_enabled(false);
        obs::reset();
    }
};

std::map<std::string, long long> counters_by_prefix(const std::string& p) {
    std::map<std::string, long long> out;
    for (const auto& [name, value] : obs::counters_snapshot())
        if (name.rfind(p, 0) == 0) out[name] = value;
    return out;
}

// ---- spans ---------------------------------------------------------------

TEST_F(ObsTest, SpansNestByConstructionOrder) {
    {
        obs::Span outer("outer");
        {
            obs::Span inner("inner");
            obs::Span innermost("innermost");
        }
        obs::Span sibling("sibling");
    }
    std::map<std::string, int> count_by_path;
    for (const auto& s : obs::spans_snapshot()) {
        ++count_by_path[s.path];
        EXPECT_FALSE(s.open) << s.path;
        EXPECT_GE(s.dur_ns, 0) << s.path;
    }
    EXPECT_EQ(count_by_path["outer"], 1);
    EXPECT_EQ(count_by_path["outer/inner"], 1);
    EXPECT_EQ(count_by_path["outer/inner/innermost"], 1);
    EXPECT_EQ(count_by_path["outer/sibling"], 1);
}

TEST_F(ObsTest, OpenSpanIsReportedOpen) {
    obs::Span open_span("still-running");
    bool found = false;
    for (const auto& s : obs::spans_snapshot())
        if (s.path == "still-running") {
            found = true;
            EXPECT_TRUE(s.open);
        }
    EXPECT_TRUE(found);
}

TEST_F(ObsTest, AnnotationsConcatenateAndReachSnapshot) {
    {
        obs::Span s("annotated");
        s.annotate("first");
        obs::annotate_current("second");
    }
    for (const auto& s : obs::spans_snapshot())
        if (s.path == "annotated") EXPECT_EQ(s.note, "first; second");
}

TEST_F(ObsTest, SpanOpenedWhileDisabledStaysInert) {
    obs::set_enabled(false);
    {
        obs::Span s("ghost");
        obs::set_enabled(true);  // toggling mid-span must not corrupt logs
    }
    for (const auto& s : obs::spans_snapshot()) EXPECT_NE(s.path, "ghost");
}

// ---- counters & gauges ---------------------------------------------------

TEST_F(ObsTest, CounterAggregatesAcrossPoolThreads) {
    obs::Counter& c = obs::counter("test.parallel_adds");
    constexpr std::size_t kN = 10000;
    parallel::parallel_for(
        kN, 64, [&](std::size_t b, std::size_t e, int) {
            c.add(static_cast<long long>(e - b));
        },
        4);
    EXPECT_EQ(c.value(), static_cast<long long>(kN));
}

TEST_F(ObsTest, CounterAndGaugeRegistryReturnsStableReferences) {
    obs::Counter& a = obs::counter("test.stable");
    obs::Counter& b = obs::counter("test.stable");
    EXPECT_EQ(&a, &b);
    obs::Gauge& g = obs::gauge("test.gauge");
    g.set(2.5);
    EXPECT_EQ(&g, &obs::gauge("test.gauge"));
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsReferencesValid) {
    obs::Counter& c = obs::counter("test.reset");
    c.add(7);
    obs::gauge("test.reset_gauge").set(1.0);
    obs::reset();
    EXPECT_EQ(c.value(), 0);
    EXPECT_DOUBLE_EQ(obs::gauge("test.reset_gauge").value(), 0.0);
    c.add(2);  // reference from before reset() still works
    EXPECT_EQ(c.value(), 2);
}

TEST_F(ObsTest, SummaryTextListsSpansCountersAndGauges) {
    {
        obs::Span s("summary-span");
    }
    obs::counter("summary.counter").add(3);
    obs::gauge("summary.gauge").set(4.0);
    const std::string text = obs::summary_text();
    EXPECT_NE(text.find("summary-span"), std::string::npos);
    EXPECT_NE(text.find("summary.counter"), std::string::npos);
    EXPECT_NE(text.find("summary.gauge"), std::string::npos);
}

// ---- trace JSON ----------------------------------------------------------

/// Minimal recursive-descent JSON parser: accepts exactly the RFC 8259
/// grammar (no trailing commas, no comments).  Returns false on any
/// syntax error.
class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : s_(text) {}
    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }
    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }
    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() || !std::isxdigit(s_[pos_]))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= s_.size()) return false;
        ++pos_;  // closing '"'
        return true;
    }
    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        if (!std::isdigit(peek())) return false;
        while (std::isdigit(peek())) ++pos_;
        if (peek() == '.') {
            ++pos_;
            if (!std::isdigit(peek())) return false;
            while (std::isdigit(peek())) ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            if (!std::isdigit(peek())) return false;
            while (std::isdigit(peek())) ++pos_;
        }
        return pos_ > start;
    }
    bool literal(const char* word) {
        for (const char* p = word; *p; ++p, ++pos_)
            if (pos_ >= s_.size() || s_[pos_] != *p) return false;
        return true;
    }
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                s_[pos_] == '\r'))
            ++pos_;
    }
    const std::string& s_;
    std::size_t pos_ = 0;
};

TEST_F(ObsTest, TraceJsonIsWellFormed) {
    {
        obs::Span outer("trace-outer");
        obs::Span inner("quote\"backslash\\newline\nend");
        inner.annotate("note with \"quotes\" and\ttabs");
    }
    obs::counter("trace.counter").add(5);
    const std::string json = obs::trace_json();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
}

TEST_F(ObsTest, TraceJsonWellFormedAfterFullExperiment) {
    flow::ExperimentOptions opt;
    auto r = flow::run_experiment(netlist::build_c17(), opt);
    (void)r;
    const std::string json = obs::trace_json();
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("flow.prepare"), std::string::npos);
    EXPECT_NE(json.find("flow.simulate"), std::string::npos);
}

// ---- determinism across thread counts ------------------------------------

TEST_F(ObsTest, GateSimCountersBitIdenticalAcrossThreadCounts) {
    const auto c = netlist::techmap(netlist::build_c432());
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(7);
    const auto vectors = rng.vectors(c, 192);

    const auto run = [&](int threads) {
        obs::reset();
        gatesim::LevelizedFaultSimulator sim(c, faults, {threads});
        sim.apply(vectors);
        auto counters = counters_by_prefix("faultsim.gate.");
        counters["remaining"] = static_cast<long long>(
            obs::gauge("faultsim.gate.remaining").value());
        return counters;
    };
    const auto serial = run(1);
    EXPECT_GT(serial.at("faultsim.gate.vectors"), 0);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(3));
}

TEST_F(ObsTest, SwitchSimCountersBitIdenticalAcrossThreadCounts) {
    const auto c = netlist::techmap(netlist::build_c17());
    const auto chip = layout::place_and_route(c);
    const auto extraction = extract::extract_faults(
        chip, extract::DefectStatistics::cmos_bridging_dominant());
    const auto net = switchsim::build_switch_netlist(c);
    const switchsim::SwitchSim sim(net);
    const auto faults = flow::to_switch_faults(extraction, chip, net);
    gatesim::RandomPatternGenerator rng(3);
    std::vector<switchsim::Vector> vectors;
    for (const auto& v : rng.vectors(c, 96))
        vectors.emplace_back(v.begin(), v.end());

    const auto run = [&](int threads) {
        obs::reset();
        switchsim::SwitchFaultSimulator fs(sim, faults, {threads});
        fs.apply(vectors);
        auto counters = counters_by_prefix("faultsim.switch.");
        counters["remaining"] = static_cast<long long>(
            obs::gauge("faultsim.switch.remaining").value());
        return counters;
    };
    const auto serial = run(1);
    EXPECT_GT(serial.at("faultsim.switch.vectors"), 0);
    EXPECT_EQ(serial, run(4));
}

TEST_F(ObsTest, SwitchSolverCountersOnC432Flow) {
    // The c432 flow's switch-level stage: the event-driven solver stays
    // under 10 component solves per fault-vector, never truncates at
    // max_sweeps, and its counters are identical at 1 and 4 threads.
    flow::ExperimentRunner runner(netlist::build_c432());
    const auto& p = runner.prepare();
    const auto& t = runner.generate_tests();
    const switchsim::SwitchSim sim(p.swnet, flow::ExperimentOptions{}.sim);
    const auto faults = flow::to_switch_faults(p.extraction, p.chip, p.swnet);
    const auto vectors = std::span<const switchsim::Vector>(t.tests.vectors);

    const auto run = [&](int threads) {
        obs::reset();
        switchsim::SwitchFaultSimulator fs(sim, faults, {threads});
        fs.apply(vectors);
        EXPECT_EQ(fs.cap_hits(), 0);
        auto counters = counters_by_prefix("faultsim.switch.");
        // Each fault is simulated up to and including its detection.
        long long fault_vectors = 0;
        for (int at : fs.first_detected_at())
            fault_vectors += at > 0 ? at : static_cast<long long>(vectors.size());
        counters["fault_vectors"] = fault_vectors;
        return counters;
    };
    const auto serial = run(1);
    EXPECT_EQ(serial.at("faultsim.switch.cap_hits"), 0);
    EXPECT_GT(serial.at("faultsim.switch.loop_restarts"), 0)
        << "c432 has feedback bridges";
    EXPECT_GT(serial.at("faultsim.switch.solves"), 0);
    EXPECT_LE(serial.at("faultsim.switch.solves"),
              10 * serial.at("fault_vectors"));
    EXPECT_EQ(serial, run(4));
}

TEST_F(ObsTest, AtpgCountersAreReproducible) {
    const auto c = netlist::techmap(netlist::build_c17());
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    atpg::TestGenOptions opt;
    opt.seed = 9;
    opt.max_random = 0;  // skip the random phase: every fault hits PODEM
    const auto run = [&] {
        obs::reset();
        atpg::generate_test_set(c, faults, opt);
        return counters_by_prefix("atpg.");
    };
    const auto first = run();
    EXPECT_GT(first.at("atpg.targets"), 0);
    EXPECT_GT(first.at("atpg.implications"), 0);
    EXPECT_EQ(first, run());
}

TEST_F(ObsTest, AnalysisCountersEqualAcrossThreadCountsOnRand500) {
    // The analysis counters are added as pivots commit, in pivot order, so
    // they match the stage's stats at any worker count.
    const auto circuit = netlist::build_random_circuit(32, 500, 7);
    const auto run = [&](int threads) {
        flow::ExperimentOptions opt;
        opt.analysis = true;
        opt.parallel.threads = threads;
        flow::ExperimentRunner runner(circuit, opt);
        runner.prepare();
        obs::reset();
        const auto& stats = runner.analyze().stats;
        const auto counters = counters_by_prefix("analysis.");
        EXPECT_EQ(counters.at("analysis.pivots"),
                  static_cast<long long>(stats.pivots_done));
        EXPECT_EQ(counters.at("analysis.implications"),
                  static_cast<long long>(stats.implications));
        EXPECT_EQ(counters.at("analysis.learned"),
                  static_cast<long long>(stats.learned));
        EXPECT_EQ(counters.at("analysis.constant_lines"),
                  static_cast<long long>(stats.constant_lines));
        EXPECT_EQ(counters.at("analysis.proofs"),
                  static_cast<long long>(stats.proofs));
        return counters;
    };
    const auto serial = run(1);
    EXPECT_GT(serial.at("analysis.proofs"), 0);
    EXPECT_EQ(serial, run(4));
}

TEST_F(ObsTest, ExtractPairCountersOnC432) {
    // extract.facing_pairs counts the pairs facing() accepts on the layers
    // bridges are extracted from, as an all-pairs loop finds them;
    // extract.pairs_examined the candidates the band search tested.
    const auto chip =
        layout::place_and_route(netlist::techmap(netlist::build_c432()));
    const auto stats = extract::DefectStatistics::cmos_bridging_dominant();
    const extract::ExtractOptions options;
    const auto flat = layout::flatten(chip);
    long long reference = 0;
    for (const cell::Layer layer :
         {cell::Layer::NDiff, cell::Layer::PDiff, cell::Layer::Poly,
          cell::Layer::Metal1, cell::Layer::Metal2}) {
        if (stats.shorts(layer) <= 0.0) continue;
        std::vector<cell::Rect> rects;
        for (const auto& s : flat)
            if (s.layer == layer) rects.push_back(s.rect);
        for (size_t i = 0; i < rects.size(); ++i)
            for (size_t j = i + 1; j < rects.size(); ++j)
                if (extract::facing(rects[i], rects[j],
                                    options.max_bridge_spacing))
                    ++reference;
    }
    extract::extract_faults(chip, stats, options);
    const auto counters = counters_by_prefix("extract.");
    EXPECT_GT(reference, 0);
    EXPECT_EQ(counters.at("extract.facing_pairs"), reference);
    EXPECT_GE(counters.at("extract.pairs_examined"),
              counters.at("extract.facing_pairs"));
}

// ---- zero overhead when disabled -----------------------------------------

TEST_F(ObsTest, DisabledHotPathDoesNotAllocate) {
    obs::Counter& c = obs::counter("noop.counter");  // registration is paid
    obs::Gauge& g = obs::gauge("noop.gauge");        // before measuring
    obs::set_enabled(false);
    const long long before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 100000; ++i) {
        DLP_OBS_SPAN(sp, "noop.span");
        DLP_OBS_SPAN_NOTE(sp, "never recorded");
        c.add(1);
        g.set(static_cast<double>(i));
        obs::annotate_current("never recorded");
    }
    const long long after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
    EXPECT_EQ(c.value(), 0);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

}  // namespace
