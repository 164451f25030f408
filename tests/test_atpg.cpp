// Tests for SCOAP testability, PODEM and the test-set generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "analysis/untestable.h"
#include "atpg/generate.h"
#include "atpg/transition_tpg.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"
#include "obs/telemetry.h"

namespace dlp::atpg {
namespace {

using gatesim::collapse_faults;
using gatesim::full_fault_universe;
using gatesim::StuckAtFault;
using gatesim::Vector;
using netlist::build_c17;
using netlist::build_c432;
using netlist::build_ripple_adder;
using netlist::Circuit;
using netlist::GateType;

TEST(Scoap, InputAndChainCosts) {
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto g = c.add_gate(GateType::And, "g", {a, b});
    const auto n = c.add_gate(GateType::Not, "n", {g});
    c.mark_output(n);
    const Testability t = compute_testability(c);
    EXPECT_EQ(t.cc0[a], 1);
    EXPECT_EQ(t.cc1[a], 1);
    EXPECT_EQ(t.cc1[g], 3);  // both inputs at 1, +1
    EXPECT_EQ(t.cc0[g], 2);  // one input at 0, +1
    EXPECT_EQ(t.cc0[n], 4);  // = cc1(g)+1
    EXPECT_EQ(t.co[n], 0);   // primary output
    EXPECT_GT(t.co[a], 0);
}

TEST(Scoap, XorCosts) {
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto x = c.add_gate(GateType::Xor, "x", {a, b});
    c.mark_output(x);
    const Testability t = compute_testability(c);
    EXPECT_EQ(t.cc0[x], 3);  // 00 or 11, cheapest pair + 1
    EXPECT_EQ(t.cc1[x], 3);
}

/// Checks a PODEM-generated vector really detects the fault.
void expect_detects(const Circuit& c, const StuckAtFault& f,
                    const Vector& test) {
    gatesim::LevelizedFaultSimulator sim(c, {f});
    sim.apply(std::span(&test, 1));
    EXPECT_EQ(sim.first_detected_at()[0], 1) << "vector does not detect "
                         << gatesim::fault_name(c, f);
}

TEST(Podem, FindsTestsForAllC17Faults) {
    const Circuit c = build_c17();
    const Testability t = compute_testability(c);
    Podem podem(c, t);
    for (const auto& f : collapse_faults(c, full_fault_universe(c))) {
        const auto res = podem.generate(f, 1000);
        ASSERT_EQ(res.status, PodemResult::Status::TestFound)
            << gatesim::fault_name(c, f);
        expect_detects(c, f, res.test);
    }
}

TEST(Podem, ProvesRedundancy) {
    // y = OR(a, NOT(a)): y stem s-a-1 is redundant.
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto na = c.add_gate(GateType::Not, "na", {a});
    const auto y = c.add_gate(GateType::Or, "y", {a, na});
    c.mark_output(y);
    Podem podem(c, compute_testability(c));
    const auto res = podem.generate({y, netlist::kNoNet, -1, true}, 1000);
    EXPECT_EQ(res.status, PodemResult::Status::Redundant);
    // The s-a-0 on the same stem is trivially testable.
    const auto res0 = podem.generate({y, netlist::kNoNet, -1, false}, 1000);
    EXPECT_EQ(res0.status, PodemResult::Status::TestFound);
}

TEST(Podem, BranchFaults) {
    const Circuit c = build_c17();
    Podem podem(c, compute_testability(c));
    // Branch fault on fanout net 11 -> gate 16.
    const netlist::NetId n11 = c.find("11");
    const netlist::NetId n16 = c.find("16");
    const StuckAtFault f{n11, n16, 1, false};
    const auto res = podem.generate(f, 1000);
    ASSERT_EQ(res.status, PodemResult::Status::TestFound);
    expect_detects(c, f, res.test);
}

class PodemCompleteness
    : public ::testing::TestWithParam<std::function<Circuit()>> {};

TEST_P(PodemCompleteness, EveryFaultDecided) {
    const Circuit c = GetParam()();
    Podem podem(c, compute_testability(c));
    int aborted = 0;
    for (const auto& f : collapse_faults(c, full_fault_universe(c))) {
        const auto res = podem.generate(f, 4096);
        if (res.status == PodemResult::Status::Aborted) {
            ++aborted;
            continue;
        }
        if (res.status == PodemResult::Status::TestFound)
            expect_detects(c, f, res.test);
    }
    EXPECT_EQ(aborted, 0) << "PODEM aborted on this small circuit";
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, PodemCompleteness,
    ::testing::Values([] { return build_c17(); },
                      [] { return build_ripple_adder(4); },
                      [] { return netlist::build_parity_tree(6); },
                      [] { return netlist::build_decoder(3); },
                      [] { return netlist::build_mux_tree(2); },
                      [] {
                          return netlist::techmap(
                              netlist::build_random_circuit(10, 60, 21));
                      }));

// ---- pinned PodemResult digests ---------------------------------------------

/// One search per fault, summarised in two parts.  `decisions` is FNV-1a
/// over the fields that follow from the decision sequence: status, test,
/// backtracks, implications and stop.  `gate_evals` is the work those
/// searches did, summed.  The x-fill word cycles through four patterns by
/// fault index.  `outcomes` counts the searches ending in each status,
/// indexed by PodemResult::Status.
struct SearchDigest {
    std::string decisions;
    std::int64_t gate_evals = 0;
};

SearchDigest podem_digest(const Circuit& c,
                          const std::vector<StuckAtFault>& faults,
                          int backtrack_limit, std::array<int, 3>& outcomes,
                          const support::RunBudget* budget = nullptr) {
    static constexpr std::uint64_t kFills[] = {
        0, ~0ULL, 0x5555555555555555ULL, 0x9e3779b97f4a7c15ULL};
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::int64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    SearchDigest digest;
    Podem podem(c, compute_testability(c));
    for (size_t i = 0; i < faults.size(); ++i) {
        const PodemResult r =
            podem.generate(faults[i], backtrack_limit,
                           kFills[i % std::size(kFills)], budget);
        mix(static_cast<std::int64_t>(r.status));
        mix(static_cast<std::int64_t>(r.test.size()));
        for (bool bit : r.test) mix(bit);
        mix(r.backtracks);
        mix(r.implications);
        mix(static_cast<std::int64_t>(r.stop));
        digest.gate_evals += r.gate_evals;
        ++outcomes[static_cast<size_t>(r.status)];
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    digest.decisions = hex;
    return digest;
}

std::vector<StuckAtFault> collapsed(const Circuit& c) {
    return collapse_faults(c, full_fault_universe(c));
}

/// What a pinned fault set must reproduce: the decision digest exactly,
/// and the work total exactly, which may never exceed the work the
/// search did before it kept an undo trail (re-implying every popped
/// decision on a backtrack).
struct SearchPin {
    const char* decisions;
    std::int64_t gate_evals;
    std::int64_t gate_evals_without_trail;
};

void expect_pin(const SearchDigest& got, const SearchPin& pin,
                const std::string& what) {
    EXPECT_EQ(got.decisions, pin.decisions) << what;
    EXPECT_EQ(got.gate_evals, pin.gate_evals) << what;
    EXPECT_LE(got.gate_evals, pin.gate_evals_without_trail) << what;
}

// The searches behind the decision digests were pinned while the
// event-driven search was still checked against a full-resimulation
// PODEM, which it matched in every decision.  A moved decision digest
// means a search now decides differently.  The gate_evals totals are the
// work of the current implication: a moved total with unmoved decisions
// means the same search now does different work, which is only allowed
// downwards.

TEST(PodemDigest, EveryCollapsedFaultOfSmallCircuits) {
    const std::pair<Circuit, SearchPin> cases[] = {
        {build_c17(), {"1ee2a1feedef6f25", 312, 312}},
        {build_c432(), {"21c4dae3be9a50e9", 484431, 648656}},
        {build_ripple_adder(4), {"1908b041c5243607", 2709, 2709}},
        {netlist::techmap(netlist::build_random_circuit(10, 60, 21)),
         {"96b60ae026903237", 543831, 699680}},
    };
    std::array<int, 3> total{};
    for (const auto& [c, pin] : cases)
        expect_pin(podem_digest(c, collapsed(c), 1024, total), pin, c.name());
    // c432 aborts at this limit; the random circuit has redundant faults.
    for (int n : total) EXPECT_GT(n, 0);
}

/// Every 17th collapsed fault of build_random_circuit(32, 500, 7): stems
/// and branches both.
std::vector<StuckAtFault> random500_sample(const Circuit& c) {
    const auto all = collapsed(c);
    std::vector<StuckAtFault> sample;
    for (size_t i = 0; i < all.size(); i += 17) sample.push_back(all[i]);
    int stems = 0;
    int branches = 0;
    for (const auto& f : sample) (f.is_stem() ? stems : branches) += 1;
    EXPECT_GT(stems, 0);
    EXPECT_GT(branches, 0);
    return sample;
}

TEST(PodemDigest, StemAndBranchFaultsOnRandom500) {
    // A strided sample at a low backtrack limit still reaches aborts and
    // redundancy.
    const Circuit c = netlist::build_random_circuit(32, 500, 7);
    std::array<int, 3> outcomes{};
    expect_pin(podem_digest(c, random500_sample(c), 256, outcomes),
               {"dff90a9232346c94", 544930, 724303}, "limit 256");
    for (int n : outcomes) EXPECT_GT(n, 0);
}

TEST(PodemDigest, DeepBacktracksOnRandom500) {
    // The same sample at the production limit: an aborted search
    // backtracks 4096 times, so the trail is unwound thousands of times
    // within one search.
    const Circuit c = netlist::build_random_circuit(32, 500, 7);
    std::array<int, 3> outcomes{};
    const auto sample = random500_sample(c);
    expect_pin(podem_digest(c, sample, TestGenOptions{}.backtrack_limit,
                            outcomes),
               {"7caa543568ff771a", 4909777, 6529001}, "limit 4096");
    EXPECT_EQ(sample.size(), 123u);
    EXPECT_EQ(outcomes, (std::array<int, 3>{107, 9, 7}));
}

TEST(PodemDigest, BudgetCancelledSearch) {
    // A cancelled budget stops a search at its first backtrack (so before
    // the limit), with its partial effort and the stop reason.
    const Circuit c = netlist::build_random_circuit(32, 500, 7);
    support::RunBudget budget;
    budget.cancel.request();
    const auto all = collapsed(c);
    const std::vector<StuckAtFault> sample(all.begin(), all.begin() + 40);
    std::array<int, 3> outcomes{};
    expect_pin(podem_digest(c, sample, 256, outcomes, &budget),
               {"7667e069bc2afc4f", 18102, 18102}, "cancelled");
    EXPECT_GT(outcomes[static_cast<size_t>(PodemResult::Status::Aborted)], 0)
        << "no sampled search reached a backtrack";
}

TEST(Podem, SearchHasNoHistory) {
    // A search reads only its fault: on a fresh object, in reverse order on
    // one object, or alternating between two, every fault gets the same
    // cube and the same effort, whatever x-fill word it is given.
    const Circuit c = netlist::build_random_circuit(32, 500, 7);
    const Testability t = compute_testability(c);
    const auto all = collapsed(c);
    std::vector<StuckAtFault> sample;
    for (size_t i = 0; i < all.size(); i += 17) sample.push_back(all[i]);
    const size_t n = sample.size();
    constexpr int kLimit = 256;

    std::vector<PodemResult> fresh;
    for (const auto& f : sample) {
        Podem podem(c, t);
        fresh.push_back(podem.generate(f, kLimit, 0));
    }
    std::vector<PodemResult> reverse(n);
    {
        Podem podem(c, t);
        for (size_t i = n; i-- > 0;)
            reverse[i] = podem.generate(sample[i], kLimit, ~0ULL);
    }
    std::vector<PodemResult> interleaved(n);
    {
        Podem even(c, t);
        Podem odd(c, t);
        constexpr std::uint64_t kFill = 0x9e3779b97f4a7c15ULL;
        for (size_t i = 0; i < n; ++i)
            interleaved[i] =
                (i % 2 ? odd : even).generate(sample[i], kLimit, kFill);
    }

    std::array<int, 3> outcomes{};
    for (size_t i = 0; i < n; ++i) {
        const std::string what = gatesim::fault_name(c, sample[i]);
        const PodemResult& want = fresh[i];
        ++outcomes[static_cast<size_t>(want.status)];
        for (const PodemResult* got : {&reverse[i], &interleaved[i]}) {
            EXPECT_EQ(got->status, want.status) << what;
            EXPECT_EQ(got->cube, want.cube) << what;
            EXPECT_EQ(got->backtracks, want.backtracks) << what;
            EXPECT_EQ(got->implications, want.implications) << what;
            EXPECT_EQ(got->gate_evals, want.gate_evals) << what;
            EXPECT_EQ(got->stop, want.stop) << what;
        }
        if (want.status == PodemResult::Status::TestFound) {
            EXPECT_EQ(want.test, fill_cube(want.cube, 0)) << what;
            EXPECT_EQ(reverse[i].test, fill_cube(want.cube, ~0ULL)) << what;
        }
    }
    for (int k : outcomes) EXPECT_GT(k, 0);
}

TEST(Generate, ReachesFullCoverageOnC432) {
    const Circuit c = netlist::techmap(build_c432());
    auto faults = collapse_faults(c, full_fault_universe(c));
    TestGenOptions opt;
    opt.seed = 7;
    const TestGenResult res = generate_test_set(c, faults, opt);
    // The c432 reconstruction contains a handful of genuinely redundant
    // faults (the priority encoder masks low channels); PODEM must prove
    // most of them and abort on at most a few.
    EXPECT_LE(res.aborted, 8u);
    EXPECT_GE(res.coverage(), 0.98) << "undetected testable faults remain";
    EXPECT_GT(res.random_count, 0);
    EXPECT_EQ(res.status.size(), faults.size());
    // The random prefix alone must already top 80% (paper sec. 3).
    size_t by_random = 0;
    for (int at : res.first_detected_at)
        if (at >= 1 && at <= res.random_count) ++by_random;
    EXPECT_GT(static_cast<double>(by_random) /
                  static_cast<double>(faults.size()),
              0.8);
}

TEST(Generate, DeterministicInSeed) {
    const Circuit c = build_c17();
    auto faults = collapse_faults(c, full_fault_universe(c));
    TestGenOptions opt;
    opt.seed = 42;
    const auto a = generate_test_set(c, faults, opt);
    const auto b = generate_test_set(c, faults, opt);
    EXPECT_EQ(a.vectors, b.vectors);
    opt.seed = 43;
    const auto d = generate_test_set(c, faults, opt);
    EXPECT_NE(a.vectors, d.vectors);
}

TEST(Generate, CountsAreConsistent) {
    const Circuit c = build_ripple_adder(6);
    auto faults = collapse_faults(c, full_fault_universe(c));
    const TestGenResult res = generate_test_set(c, faults);
    EXPECT_EQ(res.first_detected_at.size(), faults.size());
    EXPECT_EQ(static_cast<int>(res.vectors.size()),
              res.random_count + res.deterministic_count);
    size_t detected = 0;
    for (int at : res.first_detected_at) detected += at >= 1;
    EXPECT_EQ(detected, res.detected);
    EXPECT_NEAR(res.raw_coverage(),
                static_cast<double>(res.detected) /
                    static_cast<double>(faults.size()),
                1e-12);
}

TEST(TransitionTpg, ReachesHighCoverage) {
    const Circuit c = netlist::techmap(build_c432());
    auto faults = gatesim::full_transition_universe(c);
    TransitionTestOptions opt;
    opt.seed = 11;
    const auto res = generate_transition_tests(c, faults, opt);
    EXPECT_GE(res.coverage(), 0.95);
    EXPECT_EQ(res.first_detected_at.size(), faults.size());
    EXPECT_EQ(res.vectors.size(),
              static_cast<size_t>(res.random_count + 2 * res.pair_count));
}

TEST(TransitionTpg, PairsActuallyDetect) {
    // Re-simulating the generated sequence must reproduce the claimed
    // detections.
    const Circuit c = build_ripple_adder(5);
    auto faults = gatesim::full_transition_universe(c);
    TransitionTestOptions opt;
    opt.seed = 3;
    opt.max_random = 128;
    const auto res = generate_transition_tests(c, faults, opt);
    gatesim::TransitionFaultSimulator resim(c, faults);
    resim.apply(res.vectors);
    size_t detected = 0;
    for (int at : resim.first_detected_at()) detected += at >= 1;
    EXPECT_GE(detected, res.detected);
}

TEST(TransitionTpg, DeterministicInSeed) {
    const Circuit c = build_c17();
    auto faults = gatesim::full_transition_universe(c);
    TransitionTestOptions opt;
    opt.seed = 5;
    const auto a = generate_transition_tests(c, faults, opt);
    const auto b = generate_transition_tests(c, faults, opt);
    EXPECT_EQ(a.vectors, b.vectors);
    EXPECT_EQ(a.detected, b.detected);
}

TEST(TransitionTpg, StopsAfterTheBlockThatCompletesCoverage) {
    // Random blocks keep coming only while faults remain: once coverage is
    // complete, no barren block follows.
    constexpr int kBlock = 8;
    for (const Circuit& c : {build_c17(), build_ripple_adder(4)}) {
        auto faults = gatesim::full_transition_universe(c);
        TransitionTestOptions opt;
        opt.seed = 5;
        opt.random_block = kBlock;
        const auto res = generate_transition_tests(c, faults, opt);
        ASSERT_EQ(res.detected, faults.size()) << c.name();
        EXPECT_EQ(res.pair_count, 0) << c.name();
        const int last = *std::max_element(res.first_detected_at.begin(),
                                           res.first_detected_at.end());
        EXPECT_EQ((res.random_count - 1) / kBlock, (last - 1) / kBlock)
            << c.name() << ": covered at vector " << last << " of "
            << res.random_count;
    }
}

// ---- parallel PODEM targets ------------------------------------------------

struct GenRun {
    TestGenResult res;
    std::map<std::string, long long> atpg;  ///< every atpg.* counter
};

GenRun generate_at(const Circuit& c, const std::vector<StuckAtFault>& faults,
                   TestGenOptions opt, int threads) {
    opt.parallel.threads = threads;
    obs::reset();
    obs::set_enabled(true);
    GenRun run{generate_test_set(c, faults, opt), {}};
    for (const auto& [name, value] : obs::counters_snapshot())
        if (name.rfind("atpg.", 0) == 0) run.atpg[name] = value;
    obs::set_enabled(false);
    obs::reset();
    return run;
}

void expect_same_run(const GenRun& got, const GenRun& want) {
    EXPECT_EQ(got.res.vectors, want.res.vectors);
    EXPECT_EQ(got.res.random_count, want.res.random_count);
    EXPECT_EQ(got.res.deterministic_count, want.res.deterministic_count);
    EXPECT_EQ(got.res.first_detected_at, want.res.first_detected_at);
    EXPECT_EQ(got.res.status, want.res.status);
    EXPECT_EQ(got.res.detected, want.res.detected);
    EXPECT_EQ(got.res.redundant, want.res.redundant);
    EXPECT_EQ(got.res.aborted, want.res.aborted);
    EXPECT_EQ(got.res.untargeted, want.res.untargeted);
    EXPECT_EQ(got.res.stop, want.res.stop);
    EXPECT_EQ(got.atpg, want.atpg);
}

class ParallelDeterminism : public ::testing::Test {
protected:
    // Small enough that every fault can go through PODEM, large enough
    // that a low backtrack limit aborts.
    const Circuit c_ = netlist::build_random_circuit(24, 300, 11);
    const std::vector<StuckAtFault> faults_ = collapsed(c_);

    TestGenOptions options() const {
        TestGenOptions opt;
        opt.seed = 3;
        opt.backtrack_limit = 16;
        return opt;
    }

    /// Runs at 1 thread, then requires 2, 4 and 8 threads to match it.
    GenRun expect_thread_count_invariant(const TestGenOptions& opt) {
        const GenRun serial = generate_at(c_, faults_, opt, 1);
        for (int threads : {2, 4, 8}) {
            SCOPED_TRACE(threads);
            expect_same_run(generate_at(c_, faults_, opt, threads), serial);
        }
        return serial;
    }
};

TEST_F(ParallelDeterminism, GenerateWithAborts) {
    const GenRun serial = expect_thread_count_invariant(options());
    EXPECT_GT(serial.res.aborted, 0u);
    EXPECT_GT(serial.res.deterministic_count, 0);
}

TEST_F(ParallelDeterminism, GenerateWithAnalysisMarks) {
    TestGenOptions opt = options();
    opt.untestable = analysis::find_untestable(c_, faults_).untestable;
    const auto marked = static_cast<size_t>(
        std::count(opt.untestable.begin(), opt.untestable.end(), 1));
    ASSERT_GT(marked, 0u);
    const GenRun serial = expect_thread_count_invariant(opt);
    EXPECT_GE(serial.res.redundant, marked);
}

TEST_F(ParallelDeterminism, GenerateWithoutRandomPhase) {
    // Every fault goes through PODEM, so commits drop most speculative
    // searches: the first vectors detect many later targets.
    TestGenOptions opt = options();
    opt.max_random = 0;
    const GenRun serial = expect_thread_count_invariant(opt);
    EXPECT_EQ(serial.res.random_count, 0);
    EXPECT_LT(serial.atpg.at("atpg.targets"),
              static_cast<long long>(faults_.size()) / 2);
}

TEST_F(ParallelDeterminism, VectorCapIsPrefixOfUnboundedRun) {
    TestGenOptions opt = options();
    opt.max_random = 64;
    const GenRun full = generate_at(c_, faults_, opt, 4);
    ASSERT_GT(full.res.deterministic_count, 4);
    opt.budget.max_vectors =
        full.res.random_count + full.res.deterministic_count / 2;
    const GenRun capped = generate_at(c_, faults_, opt, 4);
    EXPECT_EQ(capped.res.stop, support::StopReason::VectorBudget);
    ASSERT_EQ(capped.res.vectors.size(),
              static_cast<size_t>(opt.budget.max_vectors));
    EXPECT_TRUE(std::equal(capped.res.vectors.begin(),
                           capped.res.vectors.end(),
                           full.res.vectors.begin()));
    EXPECT_GT(capped.res.untargeted, 0u);
    EXPECT_EQ(capped.res.untargeted + capped.res.detected +
                  capped.res.redundant + capped.res.aborted,
              faults_.size());
}

TEST_F(ParallelDeterminism, CancelledBudgetTargetsNothing) {
    TestGenOptions opt = options();
    opt.max_random = 0;
    opt.budget.cancel.request();
    const GenRun run = generate_at(c_, faults_, opt, 4);
    EXPECT_EQ(run.res.stop, support::StopReason::Cancelled);
    EXPECT_TRUE(run.res.vectors.empty());
    EXPECT_EQ(run.atpg.at("atpg.targets"), 0);
    EXPECT_EQ(run.res.untargeted, faults_.size());
}

}  // namespace
}  // namespace dlp::atpg
