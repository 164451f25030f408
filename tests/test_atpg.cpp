// Tests for SCOAP testability, PODEM and the test-set generator.
#include <gtest/gtest.h>

#include <array>

#include "atpg/generate.h"
#include "atpg/compaction.h"
#include "atpg/transition_tpg.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"
#include "podem_reference.h"

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

// ---- differential oracle: event-driven PODEM vs full re-simulation --------

/// Runs both PODEMs on `faults` and requires identical results.  The
/// production search may only do less gate work than re-simulating every
/// gate on every implication.  Returns how many searches ended in each
/// status, indexed by PodemResult::Status.
std::array<int, 3> expect_same_as_reference(
    const Circuit& c, const std::vector<StuckAtFault>& faults,
    int backtrack_limit, const support::RunBudget* budget = nullptr) {
    static constexpr std::uint64_t kFills[] = {
        0, ~0ULL, 0x5555555555555555ULL, 0x9e3779b97f4a7c15ULL};
    const Testability t = compute_testability(c);
    Podem podem(c, t);
    reference::ReferencePodem ref(c, t);
    std::array<int, 3> outcomes{};
    for (size_t i = 0; i < faults.size(); ++i) {
        const StuckAtFault& f = faults[i];
        const std::uint64_t fill = kFills[i % std::size(kFills)];
        const PodemResult got =
            podem.generate(f, backtrack_limit, fill, budget);
        const PodemResult want =
            ref.generate(f, backtrack_limit, fill, budget);
        const std::string what = c.name() + " " + gatesim::fault_name(c, f);
        EXPECT_EQ(got.status, want.status) << what;
        EXPECT_EQ(got.test, want.test) << what;
        EXPECT_EQ(got.backtracks, want.backtracks) << what;
        EXPECT_EQ(got.implications, want.implications) << what;
        EXPECT_EQ(got.stop, want.stop) << what;
        EXPECT_GT(got.gate_evals, 0) << what;
        EXPECT_LE(got.gate_evals, want.gate_evals) << what;
        ++outcomes[static_cast<size_t>(got.status)];
    }
    return outcomes;
}

std::vector<StuckAtFault> collapsed(const Circuit& c) {
    return collapse_faults(c, full_fault_universe(c));
}

TEST(PodemDifferential, EveryCollapsedFaultOfSmallCircuits) {
    std::array<int, 3> total{};
    for (const Circuit& c :
         {build_c17(), build_c432(), build_ripple_adder(4),
          netlist::techmap(netlist::build_random_circuit(10, 60, 21))}) {
        const auto outcomes = expect_same_as_reference(c, collapsed(c), 1024);
        for (size_t s = 0; s < total.size(); ++s) total[s] += outcomes[s];
    }
    // c432 aborts at this limit; the random circuit has redundant faults.
    for (int n : total) EXPECT_GT(n, 0);
}

TEST(PodemDifferential, StemAndBranchFaultsOnRandom500) {
    // Every collapsed fault would take minutes in the reference; a strided
    // sample at a low backtrack limit still reaches aborts and redundancy.
    const Circuit c = netlist::build_random_circuit(32, 500, 7);
    const auto all = collapsed(c);
    std::vector<StuckAtFault> sample;
    for (size_t i = 0; i < all.size(); i += 17) sample.push_back(all[i]);
    int stems = 0;
    int branches = 0;
    for (const auto& f : sample) (f.is_stem() ? stems : branches) += 1;
    ASSERT_GT(stems, 0);
    ASSERT_GT(branches, 0);
    for (int n : expect_same_as_reference(c, sample, 256)) EXPECT_GT(n, 0);
}

TEST(PodemDifferential, BudgetCancelledSearch) {
    // A cancelled budget stops both searches at their first backtrack (so
    // before the limit), with the same partial effort and stop reason.
    const Circuit c = netlist::build_random_circuit(32, 500, 7);
    support::RunBudget budget;
    budget.cancel.request();
    const auto all = collapsed(c);
    const std::vector<StuckAtFault> sample(all.begin(), all.begin() + 40);
    const auto outcomes = expect_same_as_reference(c, sample, 256, &budget);
    EXPECT_GT(outcomes[static_cast<size_t>(PodemResult::Status::Aborted)], 0)
        << "no sampled search reached a backtrack";
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

TEST(Compaction, PreservesCoverageAndShrinks) {
    const Circuit c = netlist::techmap(build_c432());
    auto faults = collapse_faults(c, full_fault_universe(c));
    TestGenOptions opt;
    opt.seed = 7;
    const auto res = generate_test_set(c, faults, opt);

    const auto compact = compact_reverse(c, faults, res.vectors);
    EXPECT_LT(compact.kept, compact.original / 4)
        << "random prefix should mostly fall away";
    EXPECT_EQ(compact.kept, compact.vectors.size());

    // Coverage of the compacted set equals the original detected count.
    gatesim::LevelizedFaultSimulator before(c, faults);
    before.apply(res.vectors);
    gatesim::LevelizedFaultSimulator after(c, faults);
    after.apply(compact.vectors);
    EXPECT_EQ(after.detected_count(), before.detected_count());
}

TEST(Compaction, KeepsOrderAndHandlesTinySets) {
    const Circuit c = build_c17();
    auto faults = collapse_faults(c, full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(2);
    const auto vectors = rng.vectors(c, 32);
    const auto compact = compact_reverse(c, faults, vectors);
    // Kept vectors appear in their original relative order.
    size_t cursor = 0;
    for (const auto& v : compact.vectors) {
        while (cursor < vectors.size() && vectors[cursor] != v) ++cursor;
        ASSERT_LT(cursor, vectors.size());
        ++cursor;
    }
    const auto empty = compact_reverse(c, faults, {});
    EXPECT_EQ(empty.kept, 0u);
}

}  // namespace
}  // namespace dlp::atpg
