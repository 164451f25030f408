// Fault-injection robustness harness.
//
// Three attack surfaces, all deterministic in their seeds:
//   * corpus mutation against the text parsers: a seeded mutator corrupts
//     known-good .bench / .rules texts and every campaign cache artifact
//     kind; the parsers must either succeed or throw a diagnostic
//     (line-numbered for .bench / .rules, std::runtime_error for
//     artifacts) — never crash (the CI runs this suite under ASan+UBSan).
//   * injected worker failures against the shared thread pool: a body
//     exception at a seeded random chunk must propagate exactly once and
//     leave the pool fully reusable.
//   * randomized cancellation / budget points against the budget-aware
//     pipeline: whatever a bounded run commits must be a bit-identical
//     prefix of the unbounded run (the RunBudget contract in
//     support/cancel.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atpg/generate.h"
#include "campaign/artifacts.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "extract/rules_parser.h"
#include "flow/experiment.h"
#include "flow/report.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "lint/checks.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"
#include "parallel/parallel_for.h"
#include "support/cancel.h"
#include "support/env.h"
#include "support/parse.h"

namespace dlp {
namespace {

// ---------------------------------------------------------------------------
// Seeded corpus mutator.

std::string mutate(const std::string& base, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::string s = base;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
        if (s.empty()) break;
        switch (rng() % 6) {
            case 0:  // flip a byte
                s[rng() % s.size()] = static_cast<char>(rng() % 256);
                break;
            case 1:  // delete a short run
                s.erase(rng() % s.size(), 1 + rng() % 8);
                break;
            case 2:  // insert a byte
                s.insert(rng() % s.size(), 1, static_cast<char>(rng() % 256));
                break;
            case 3: {  // duplicate the line around a random position
                const size_t pos = rng() % s.size();
                size_t b = s.rfind('\n', pos);
                b = b == std::string::npos ? 0 : b + 1;
                size_t e2 = s.find('\n', pos);
                e2 = e2 == std::string::npos ? s.size() : e2 + 1;
                s.insert(e2, s.substr(b, e2 - b));
                break;
            }
            case 4:  // truncate
                s.resize(rng() % s.size());
                break;
            default: {  // swap two bytes
                const size_t a = rng() % s.size();
                const size_t b = rng() % s.size();
                std::swap(s[a], s[b]);
                break;
            }
        }
    }
    return s;
}

/// True when `msg` starts with "<tag>:<digits>:", the parsers' diagnostic
/// contract.
bool line_tagged(const std::string& msg, const std::string& tag) {
    const std::string prefix = tag + ":";
    if (msg.rfind(prefix, 0) != 0) return false;
    size_t j = prefix.size();
    const size_t digits_start = j;
    while (j < msg.size() && std::isdigit(static_cast<unsigned char>(msg[j])))
        ++j;
    return j > digits_start && j < msg.size() && msg[j] == ':';
}

/// Runs both .bench readers on `text` and checks that they agree:
/// lint_bench_text reports an error exactly when parse_bench throws, and
/// the thrown line and message are one of the lint findings.  Returns
/// whether the text parsed.
bool bench_readers_agree(const std::string& text, const std::string& what) {
    lint::DiagnosticEngine engine;
    lint::lint_bench_text(text, "fuzz", engine);
    try {
        netlist::parse_bench(text, "fuzz");
        EXPECT_EQ(engine.errors(), 0u)
            << what << ": parsed, but lint says\n"
            << lint::render_text(engine.diagnostics());
        return true;
    } catch (const support::ParseError& e) {
        // Any other exception type escapes the catch and fails the test;
        // crashes / UB are caught by the sanitizer CI job.
        EXPECT_TRUE(line_tagged(e.what(), "bench")) << what << ": " << e.what();
        const auto& diags = engine.diagnostics();
        EXPECT_TRUE(std::any_of(diags.begin(), diags.end(),
                                [&](const lint::Diagnostic& d) {
                                    return d.loc.line == e.line() &&
                                           d.message == e.message();
                                }))
            << what << ": " << e.what() << " is no lint finding of\n"
            << lint::render_text(diags);
        return false;
    }
}

TEST(ParserFuzz, BenchMutationsParseOrDiagnoseWithLineNumbers) {
    for (const netlist::Circuit& c :
         {netlist::build_c17(), netlist::build_c432()}) {
        const std::string base = netlist::to_bench(c);
        int rejected = 0;
        for (std::uint32_t seed = 0; seed < 3000; ++seed)
            if (!bench_readers_agree(mutate(base, seed),
                                     c.name() + " seed " +
                                         std::to_string(seed)))
                ++rejected;
        EXPECT_GT(rejected, 0) << "the mutator never produced an invalid bench";
        EXPECT_LT(rejected, 3000) << "the mutator never kept a bench valid";
    }
}

TEST(ParserFuzz, RulesMutationsParseOrDiagnoseWithLineNumbers) {
    const std::string base =
        extract::to_rules(extract::DefectStatistics::cmos_bridging_dominant());
    int parsed = 0;
    int rejected = 0;
    for (std::uint32_t seed = 1000; seed < 1300; ++seed) {
        const std::string text = mutate(base, seed);
        try {
            extract::parse_defect_rules(text);
            ++parsed;
        } catch (const std::runtime_error& e) {
            EXPECT_TRUE(line_tagged(e.what(), "rules"))
                << "seed " << seed << ": " << e.what();
            ++rejected;
        }
    }
    EXPECT_EQ(parsed + rejected, 300);
    EXPECT_GT(rejected, 0) << "the mutator never produced invalid rules";
}

/// One serialized document per campaign artifact kind, all from a real
/// analysis-on, n-detect, clustered c17 cell, with the kind's parser.
struct ArtifactKind {
    const char* name;
    const char* count_key;  ///< a counted list field of the kind
    std::string text;
    std::function<void(const std::string&)> parse;
};

std::vector<ArtifactKind> artifact_corpus() {
    flow::ExperimentOptions opt;
    opt.analysis = true;
    opt.atpg.ndetect = 2;
    flow::ExperimentRunner runner(netlist::build_c17(), opt);
    const auto& a = runner.analyze();
    const auto& t = runner.generate_tests();
    const auto& d = runner.simulate();
    const campaign::CampaignSpec spec = campaign::parse_campaign_spec(
        "[grid]\ncircuits = c17\nrules = bridging\nndetect = 2\n"
        "analysis = on\ndefect_stats = negbin:2\n");
    const campaign::CellResult cell =
        campaign::run_campaign(spec, {}).cells.at(0);
    return {
        {"faults", "count", campaign::serialize_faults(t.stuck),
         [](const std::string& s) { campaign::parse_faults(s); }},
        {"tests", "stuck", campaign::serialize_tests(t),
         [](const std::string& s) { campaign::parse_tests(s); }},
        {"sim", "theta_curve", campaign::serialize_simulation(d),
         [](const std::string& s) { campaign::parse_simulation(s); }},
        {"cell", "t_curve", campaign::serialize_cell(cell),
         [](const std::string& s) { campaign::parse_cell(s); }},
        {"analysis", "stuck", campaign::serialize_analysis(a),
         [](const std::string& s) { campaign::parse_analysis(s); }},
    };
}

/// Parses `text`; true when accepted, false when rejected with the
/// std::runtime_error the artifact contract promises.  Any other
/// exception type escapes and fails the calling test.
bool artifact_parses(const ArtifactKind& kind, const std::string& text) {
    try {
        kind.parse(text);
        return true;
    } catch (const std::runtime_error&) {
        return false;
    }
}

TEST(ParserFuzz, ArtifactTruncationsParseOrThrowRuntimeError) {
    for (const ArtifactKind& kind : artifact_corpus()) {
        SCOPED_TRACE(kind.name);
        ASSERT_TRUE(artifact_parses(kind, kind.text));
        int rejected = 0;
        for (std::size_t nl = kind.text.find('\n'); nl != std::string::npos;
             nl = kind.text.find('\n', nl + 1)) {
            // Cut just before and just after each line boundary.
            if (!artifact_parses(kind, kind.text.substr(0, nl))) ++rejected;
            if (nl + 1 < kind.text.size() &&
                !artifact_parses(kind, kind.text.substr(0, nl + 1)))
                ++rejected;
        }
        EXPECT_GT(rejected, 0);
    }
}

TEST(ParserFuzz, ArtifactMutationsParseOrThrowRuntimeError) {
    for (const ArtifactKind& kind : artifact_corpus()) {
        SCOPED_TRACE(kind.name);
        int rejected = 0;
        for (std::uint32_t seed = 2000; seed < 2300; ++seed)
            if (!artifact_parses(kind, mutate(kind.text, seed))) ++rejected;
        EXPECT_GT(rejected, 0)
            << "the mutator never produced an invalid artifact";
    }
}

TEST(ParserFuzz, ArtifactCountsAreCheckedBeforeAllocating) {
    // A negative or absurd count is a parse error, not a length_error or
    // a bad_alloc.
    EXPECT_THROW(campaign::parse_faults("dlproj-faults 1\ncount -1\n"),
                 std::runtime_error);
    EXPECT_THROW(
        campaign::parse_faults("dlproj-faults 1\ncount 1000000000000\n"),
        std::runtime_error);
    for (const ArtifactKind& kind : artifact_corpus()) {
        SCOPED_TRACE(kind.name);
        const std::string key = "\n" + std::string(kind.count_key) + " ";
        const std::size_t at = kind.text.find(key);
        ASSERT_NE(at, std::string::npos);
        const std::size_t space = at + key.size() - 1;
        const std::size_t end = kind.text.find_first_of(" \n", space + 1);
        for (const char* count : {"-1", "1000000000000"}) {
            const std::string text = kind.text.substr(0, space + 1) + count +
                                     kind.text.substr(end);
            EXPECT_FALSE(artifact_parses(kind, text)) << count;
        }
    }
}

TEST(ParserDiagnostics, BenchStructuralErrorsCarryTheOffendingLine) {
    using netlist::parse_bench;
    const auto message_of = [](const std::string& text) -> std::string {
        try {
            parse_bench(text, "x");
        } catch (const std::runtime_error& e) {
            return e.what();
        }
        return "";
    };
    EXPECT_TRUE(line_tagged(
        message_of("INPUT(a)\ny = NOT(a)\ny = BUF(a)\nOUTPUT(y)"), "bench"));
    EXPECT_NE(message_of("INPUT(a)\ny = NOT(a)\ny = BUF(a)\nOUTPUT(y)")
                  .find("driven twice"),
              std::string::npos);
    EXPECT_NE(message_of("INPUT(a)\nINPUT(a)\ny = NOT(a)\nOUTPUT(y)")
                  .find("duplicate INPUT"),
              std::string::npos);
    EXPECT_NE(message_of("INPUT(a)\nu = NOT(v)\nv = NOT(u)\nOUTPUT(u)")
                  .find("combinational cycle"),
              std::string::npos);
    EXPECT_NE(message_of("INPUT(a)\ny = NOT(zz)\nOUTPUT(y)")
                  .find("undefined net"),
              std::string::npos);
    const std::string undriven =
        message_of("INPUT(a)\ny = NOT(a)\nOUTPUT(q)");
    EXPECT_TRUE(line_tagged(undriven, "bench")) << undriven;
    EXPECT_NE(undriven.find("never driven"), std::string::npos);
    // Gate arity is checked by the rule circuit construction applies, and
    // the linter reports the same finding.
    for (const char* text : {"INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)",
                             "INPUT(a)\ny = AND(a)\nOUTPUT(y)"}) {
        EXPECT_TRUE(line_tagged(message_of(text), "bench")) << text;
        EXPECT_FALSE(bench_readers_agree(text, text));
    }
    // The line is a typed field, not only part of what().
    try {
        parse_bench("INPUT(a)\n\ny = NOT(zz)\nOUTPUT(y)", "x");
        ADD_FAILURE() << "undefined net accepted";
    } catch (const support::ParseError& e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_EQ(e.message(), "undefined net 'zz' in fanin of 'y'");
        EXPECT_EQ(std::string(e.what()), "bench:3: " + e.message());
    }
}

TEST(ParserDiagnostics, RulesRejectBadValuesAndDuplicates) {
    using extract::parse_defect_rules;
    EXPECT_THROW(parse_defect_rules("unit 0"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("unit -2"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("unit nan"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("short metal1 -1"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("pinhole nan"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("x0 2\nx0 3"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("short metal1 1\nshort metal1 2"),
                 std::runtime_error);
    // Same kind on different layers is legal.
    EXPECT_NO_THROW(parse_defect_rules("short metal1 1\nshort metal2 2"));
    try {
        parse_defect_rules("x0 2\n\nx0 3");
        ADD_FAILURE() << "duplicate x0 accepted";
    } catch (const support::ParseError& e) {
        EXPECT_TRUE(line_tagged(e.what(), "rules")) << e.what();
        EXPECT_NE(std::string(e.what()).find("rules:3:"), std::string::npos);
        EXPECT_EQ(e.line(), 3);
    }
}

// ---------------------------------------------------------------------------
// Injected worker failures.

TEST(PoolFaultInjection, SeededWorkerFailuresLeavePoolReusable) {
    for (std::uint32_t seed = 0; seed < 100; ++seed) {
        std::mt19937 rng(seed);
        const size_t n = 512 + rng() % 2048;
        const size_t bomb = rng() % n;
        const size_t grain = 1 + rng() % 16;
        const int threads = 2 + static_cast<int>(rng() % 6);
        bool threw = false;
        try {
            parallel::parallel_for(
                n, grain,
                [&](size_t b, size_t e, int) {
                    if (b <= bomb && bomb < e)
                        throw std::runtime_error("injected");
                },
                threads);
        } catch (const std::runtime_error&) {
            threw = true;
        }
        ASSERT_TRUE(threw) << "seed " << seed;
        // The pool must complete a full clean region right away.
        std::atomic<size_t> covered{0};
        parallel::parallel_for(
            n, 7,
            [&](size_t b, size_t e, int) {
                covered.fetch_add(e - b, std::memory_order_relaxed);
            },
            threads);
        ASSERT_EQ(covered.load(), n) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// Prefix consistency of the budget-aware simulators.

TEST(PrefixConsistency, GateSimVectorBudgetYieldsExactPrefix) {
    const netlist::Circuit c = netlist::build_c17();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(7);
    const auto vectors = rng.vectors(c, 256);

    gatesim::LevelizedFaultSimulator full(c, faults);
    full.apply(vectors);
    const auto full_curve = full.coverage_curve();
    ASSERT_EQ(full_curve.size(), vectors.size());

    std::mt19937 pick(123);
    for (int round = 0; round < 25; ++round) {
        const long long cut = 1 + static_cast<long long>(pick() % 256);
        support::RunBudget budget;
        budget.max_vectors = cut;
        gatesim::LevelizedFaultSimulator part(c, faults);
        const auto res = part.apply(vectors, budget);
        ASSERT_EQ(res.vectors_applied, static_cast<int>(cut));
        if (cut < static_cast<long long>(vectors.size()))
            EXPECT_EQ(res.stop, support::StopReason::VectorBudget);
        else
            EXPECT_EQ(res.stop, support::StopReason::None);
        const auto curve = part.coverage_curve();
        ASSERT_EQ(curve.size(), static_cast<size_t>(cut));
        for (size_t i = 0; i < curve.size(); ++i)
            ASSERT_EQ(curve[i], full_curve[i])
                << "cut=" << cut << " i=" << i;
        // Detection table: entries within the prefix are identical, the
        // rest are still undetected — nothing beyond the cut leaked in.
        for (size_t f = 0; f < faults.size(); ++f) {
            const int at = full.first_detected_at()[f];
            if (at >= 1 && at <= cut)
                ASSERT_EQ(part.first_detected_at()[f], at);
            else
                ASSERT_EQ(part.first_detected_at()[f], -1);
        }
    }
}

TEST(PrefixConsistency, GateSimCancellationCommitsWholeBlocks) {
    const netlist::Circuit c = netlist::build_c17();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(11);
    const auto vectors = rng.vectors(c, 512);

    gatesim::LevelizedFaultSimulator full(c, faults);
    full.apply(vectors);
    const auto full_curve = full.coverage_curve();

    for (std::uint32_t seed = 0; seed < 10; ++seed) {
        support::RunBudget budget;
        gatesim::LevelizedFaultSimulator part(c, faults);
        std::thread canceller([&budget, seed] {
            std::this_thread::sleep_for(std::chrono::microseconds(seed * 40));
            budget.cancel.request();
        });
        const auto res = part.apply(vectors, budget);
        canceller.join();
        // Whole 64-vector blocks only; whatever committed is an exact
        // prefix of the unbounded run, wherever the cancel landed.
        EXPECT_EQ(res.vectors_applied % 64, 0) << "seed " << seed;
        const auto curve = part.coverage_curve();
        ASSERT_EQ(curve.size(), static_cast<size_t>(res.vectors_applied));
        for (size_t i = 0; i < curve.size(); ++i)
            ASSERT_EQ(curve[i], full_curve[i]) << "seed " << seed;
    }
}

TEST(PrefixConsistency, GateSimPreCancelledAndExpiredApplyNothing) {
    const netlist::Circuit c = netlist::build_c17();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(3);
    const auto vectors = rng.vectors(c, 64);

    support::RunBudget cancelled;
    cancelled.cancel.request();
    gatesim::LevelizedFaultSimulator a(c, faults);
    const auto ra = a.apply(vectors, cancelled);
    EXPECT_EQ(ra.vectors_applied, 0);
    EXPECT_EQ(ra.newly_detected, 0);
    EXPECT_EQ(ra.stop, support::StopReason::Cancelled);
    EXPECT_TRUE(a.coverage_curve().empty());

    support::RunBudget expired;
    expired.deadline = support::Deadline::after_ms(0);
    gatesim::LevelizedFaultSimulator b(c, faults);
    const auto rb = b.apply(vectors, expired);
    EXPECT_EQ(rb.vectors_applied, 0);
    EXPECT_EQ(rb.stop, support::StopReason::DeadlineExpired);
}

TEST(PrefixConsistency, SwitchSimVectorBudgetYieldsExactPrefix) {
    flow::ExperimentRunner runner(netlist::build_c17());
    const auto& p = runner.prepare();
    const auto& t = runner.generate_tests();
    ASSERT_GT(t.tests.vectors.size(), 1u);

    const switchsim::SwitchSim sim(p.swnet, {});
    const auto faults = flow::to_switch_faults(p.extraction, p.chip, p.swnet);
    switchsim::SwitchFaultSimulator full(sim, faults);
    full.apply(std::span<const switchsim::Vector>(t.tests.vectors));
    const auto full_theta = full.weighted_coverage_curve();
    const auto full_gamma = full.unweighted_coverage_curve();

    std::mt19937 pick(17);
    for (int round = 0; round < 8; ++round) {
        const long long cut =
            1 + static_cast<long long>(pick() % t.tests.vectors.size());
        support::RunBudget budget;
        budget.max_vectors = cut;
        switchsim::SwitchFaultSimulator part(sim, faults);
        const auto res = part.apply(
            std::span<const switchsim::Vector>(t.tests.vectors), budget);
        ASSERT_EQ(res.vectors_applied, static_cast<int>(cut));
        const auto theta = part.weighted_coverage_curve();
        const auto gamma = part.unweighted_coverage_curve();
        ASSERT_EQ(theta.size(), static_cast<size_t>(cut));
        for (size_t i = 0; i < theta.size(); ++i) {
            ASSERT_EQ(theta[i], full_theta[i]) << "cut=" << cut;
            ASSERT_EQ(gamma[i], full_gamma[i]) << "cut=" << cut;
        }
    }
}

// ---------------------------------------------------------------------------
// Budget plumbing through the whole experiment.

TEST(ExperimentBudget, VectorBudgetCurvesAreExactPrefixes) {
    const netlist::Circuit circuit = netlist::build_c17();
    flow::ExperimentOptions opt;
    opt.atpg.seed = 3;
    const flow::ExperimentResult full = flow::run_experiment(circuit, opt);
    ASSERT_FALSE(full.interruption.has_value());
    ASSERT_GT(full.vector_count, 1);

    std::mt19937 pick(99);
    for (int round = 0; round < 6; ++round) {
        flow::ExperimentOptions b = opt;
        b.budget.max_vectors =
            1 + static_cast<long long>(pick() %
                                       static_cast<unsigned>(full.vector_count));
        const flow::ExperimentResult part = flow::run_experiment(circuit, b);
        ASSERT_LE(part.vector_count, full.vector_count);
        ASSERT_LE(part.vector_count, b.budget.max_vectors);
        // The vector budget caps the test set but is not sticky: the
        // switch-level simulation still runs over the whole truncated set.
        EXPECT_EQ(part.theta_curve.size(),
                  static_cast<size_t>(part.vector_count));
        ASSERT_LE(part.t_curve.size(), full.t_curve.size());
        for (size_t i = 0; i < part.t_curve.size(); ++i)
            ASSERT_EQ(part.t_curve[i], full.t_curve[i]);  // c17: no redundancy
        for (size_t i = 0; i < part.theta_curve.size(); ++i)
            ASSERT_EQ(part.theta_curve[i], full.theta_curve[i]);
        for (size_t i = 0; i < part.gamma_curve.size(); ++i)
            ASSERT_EQ(part.gamma_curve[i], full.gamma_curve[i]);
        for (size_t i = 0; i < part.theta_iddq_curve.size(); ++i)
            ASSERT_EQ(part.theta_iddq_curve[i], full.theta_iddq_curve[i]);
        if (part.vector_count < full.vector_count) {
            ASSERT_TRUE(part.interruption.has_value());
            EXPECT_EQ(part.interruption->stage, "atpg");
            EXPECT_EQ(part.interruption->reason,
                      support::StopReason::VectorBudget);
        }
    }
}

TEST(ExperimentBudget, RandomizedCancellationYieldsExactPrefixCurves) {
    const netlist::Circuit circuit = netlist::build_c17();
    flow::ExperimentOptions opt;
    opt.atpg.seed = 3;
    flow::ExperimentRunner full_runner(circuit, opt);
    const flow::ExperimentResult& full = full_runner.run();
    ASSERT_GT(full.theta_curve.size(), 0u);

    std::mt19937 pick(7);
    for (int round = 0; round < 5; ++round) {
        flow::ExperimentOptions b = opt;
        // Copies share the cancel flag, so a fresh token must be assigned
        // explicitly — otherwise round 2 would inherit round 1's cancel.
        b.budget.cancel = support::CancelToken();
        const size_t threshold =
            1 + pick() % static_cast<unsigned>(full.theta_curve.size());
        support::CancelToken token = b.budget.cancel;
        flow::ExperimentRunner runner(circuit, b);
        runner.set_progress(
            [&token, threshold](std::string_view stage, size_t done, size_t) {
                if (stage == "switch-sim" && done >= threshold)
                    token.request();
            });
        const flow::ExperimentResult& part = runner.run();
        // The ATPG stage finished before the cancel (it only fires from
        // switch-sim progress), so the test set is the full one and every
        // committed curve entry must match bit for bit.
        ASSERT_EQ(part.t_curve.size(), full.t_curve.size());
        for (size_t i = 0; i < part.theta_curve.size(); ++i) {
            ASSERT_EQ(part.theta_curve[i], full.theta_curve[i]);
            ASSERT_EQ(part.gamma_curve[i], full.gamma_curve[i]);
        }
        if (part.theta_curve.size() < full.theta_curve.size()) {
            ASSERT_TRUE(part.interruption.has_value());
            EXPECT_EQ(part.interruption->stage, "switch-sim");
            EXPECT_EQ(part.interruption->reason,
                      support::StopReason::Cancelled);
            EXPECT_EQ(part.interruption->completed, part.theta_curve.size());
            EXPECT_EQ(part.interruption->total, full.theta_curve.size());
        }
    }
}

TEST(ExperimentBudget, ImmediateDeadlineStillReturnsAResult) {
    flow::ExperimentOptions opt;
    opt.atpg.seed = 3;
    opt.budget.deadline = support::Deadline::after_ms(0);
    const flow::ExperimentResult r =
        flow::run_experiment(netlist::build_c17(), opt);
    ASSERT_TRUE(r.interruption.has_value());
    EXPECT_EQ(r.interruption->stage, "atpg");
    EXPECT_EQ(r.interruption->reason, support::StopReason::DeadlineExpired);
    EXPECT_EQ(r.vector_count, 0);
    EXPECT_TRUE(r.t_curve.empty());
    EXPECT_TRUE(r.theta_curve.empty());
    EXPECT_TRUE(r.dl_vs_t.empty());
    // Workload facts from the (un-budgeted) prepare stage are still there.
    EXPECT_GT(r.stuck_faults, 0u);
    EXPECT_GT(r.realistic_faults, 0u);
    // Report generation must accept an interrupted (curve-length-skewed or
    // empty-curve) result without faulting.
    EXPECT_NO_THROW((void)flow::curves_csv(r));
    EXPECT_NO_THROW((void)flow::summary_text(r));
    EXPECT_NO_THROW((void)flow::weight_histogram_csv(r));
}

TEST(ExperimentBudget, ReportsHandleCurveLengthSkew) {
    // A deadline that expires mid-ATPG leaves t_curve populated but the
    // switch-level curves empty; curves_csv must emit the common prefix
    // instead of indexing past the shorter curves.
    flow::ExperimentResult r;
    r.yield = 0.75;
    r.t_curve = flow::CoverageCurve({0.1, 0.2, 0.3});
    const std::string csv = flow::curves_csv(r);
    EXPECT_EQ(csv.find("0.1"), std::string::npos);  // header only
    r.theta_curve = flow::CoverageCurve({0.05});
    r.gamma_curve = flow::CoverageCurve({0.04});
    EXPECT_NE(flow::curves_csv(r).find("0.05"), std::string::npos);
}

TEST(ExperimentBudget, AtpgBacktrackOverrideMatchesExplicitLimit) {
    const netlist::Circuit c = netlist::techmap(netlist::build_ripple_adder(4));
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));

    atpg::TestGenOptions explicit_opts;
    explicit_opts.max_random = 0;  // force every fault through PODEM
    explicit_opts.backtrack_limit = 1;
    const auto via_option = atpg::generate_test_set(c, faults, explicit_opts);

    atpg::TestGenOptions override_opts;
    override_opts.max_random = 0;
    override_opts.backtrack_limit = 4096;      // would allow a deep search...
    override_opts.budget.atpg_backtracks = 1;  // ...but the budget wins
    const auto via_budget = atpg::generate_test_set(c, faults, override_opts);

    EXPECT_EQ(via_budget.vectors, via_option.vectors);
    EXPECT_EQ(via_budget.aborted, via_option.aborted);
    EXPECT_EQ(via_budget.detected, via_option.detected);
    EXPECT_EQ(via_budget.redundant, via_option.redundant);
    EXPECT_EQ(via_budget.untargeted, 0u);
    EXPECT_EQ(via_budget.stop, support::StopReason::None);
}

TEST(ExperimentBudget, CancelledAtpgRecordsUntargetedFaults) {
    const netlist::Circuit c = netlist::techmap(netlist::build_ripple_adder(4));
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    atpg::TestGenOptions opts;
    opts.max_random = 0;  // all faults deterministic
    opts.budget.cancel.request();
    const auto r = atpg::generate_test_set(c, faults, opts);
    EXPECT_EQ(r.stop, support::StopReason::Cancelled);
    EXPECT_EQ(r.untargeted, faults.size());
    EXPECT_TRUE(r.vectors.empty());
    for (auto s : r.status) EXPECT_EQ(s, atpg::FaultStatus::Undetected);
}

TEST(ExperimentBudget, EnvDeadlineSuppliesDefaultOnly) {
    EXPECT_EQ(support::env_deadline_ms(), 0);
    ::setenv("DLPROJ_DEADLINE_MS", "1500", 1);
    EXPECT_EQ(support::env_deadline_ms(), 1500);
    // Hardened parsing (support/env.h): garbage no longer silently
    // disables the knob, it is diagnosed.
    ::setenv("DLPROJ_DEADLINE_MS", "-5", 1);
    EXPECT_THROW(support::env_deadline_ms(), support::EnvError);
    ::setenv("DLPROJ_DEADLINE_MS", "junk", 1);
    EXPECT_THROW(support::env_deadline_ms(), support::EnvError);

    // A runner built with no deadline picks the env default up...
    ::setenv("DLPROJ_DEADLINE_MS", "60000", 1);
    flow::ExperimentRunner with_env(netlist::build_c17());
    EXPECT_TRUE(with_env.options().budget.deadline.active());
    // ...an explicit deadline is never overridden...
    flow::ExperimentOptions opt;
    opt.budget.deadline = support::Deadline::after_ms(5);
    flow::ExperimentRunner with_own(netlist::build_c17(), opt);
    EXPECT_TRUE(with_own.options().budget.deadline.active());
    // ...and without the variable, no deadline is imposed.
    ::unsetenv("DLPROJ_DEADLINE_MS");
    flow::ExperimentRunner without(netlist::build_c17());
    EXPECT_FALSE(without.options().budget.deadline.active());
}

}  // namespace
}  // namespace dlp
