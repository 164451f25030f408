// The static untestability-analysis suite (CTest label `analysis`).
//
// Three families of guarantees:
//   * Proof soundness — every proof the pass emits survives the
//     independent checker (check_proof shares no deduction code with the
//     implication engine), and corrupted proofs are rejected.
//   * Differential — every fault the pass proves untestable is confirmed
//     by dynamic methods that share nothing with it: PODEM never detects
//     it (and, where search completes, independently proves it
//     Redundant), and neither fault-sim engine detects it over
//     thousands of random vectors.  On tiny circuits the confirmation is
//     exhaustive over the full input space.
//   * Integration — untestability marks thread through collapsing
//     (expand_untestable_marks marks whole equivalence classes), the
//     flow's analyze() stage corrects the coverage/DL curves (corrected
//     vs raw), and a budget stop yields an exact prefix of the unbounded
//     run's proof list.
//   * Parallel pivots (AnalysisParallel, ctest test_analysis_par) —
//     proofs, marks and stats are identical at 1, 2, 4 and 8 threads,
//     and a stop at 4 threads still yields an exact prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "analysis/implication.h"
#include "analysis/proof.h"
#include "analysis/untestable.h"
#include "atpg/generate.h"
#include "flow/experiment.h"
#include "gatesim/engine.h"
#include "gatesim/faults.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"

namespace dlp {
namespace {

using analysis::AnalysisOptions;
using analysis::AnalysisResult;
using analysis::find_untestable;
using gatesim::StuckAtFault;
using netlist::NetId;
using gatesim::Vector;

// y = a OR (a AND b): the AND gate is absorbed (y == a), so its output
// and the b input are redundant logic with untestable faults.
constexpr const char* kAbsorption = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = AND(a, b)
y = OR(a, n1)
)";

std::vector<StuckAtFault> collapsed_universe(const netlist::Circuit& c) {
    return gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
}

std::vector<StuckAtFault> copy_faults(std::span<const StuckAtFault> faults) {
    return {faults.begin(), faults.end()};
}

/// The proven-untestable subset of `faults` under `result`'s marks.
std::vector<StuckAtFault> proven_faults(
    std::span<const StuckAtFault> faults, const AnalysisResult& result) {
    std::vector<StuckAtFault> out;
    for (std::size_t i = 0; i < faults.size(); ++i)
        if (result.untestable[i]) out.push_back(faults[i]);
    return out;
}

/// Asserts every proof in `result` is accepted by the independent checker.
void expect_proofs_check(const netlist::Circuit& c,
                         const AnalysisResult& result) {
    for (const auto& proof : result.proofs) {
        std::string why;
        EXPECT_TRUE(analysis::check_proof(c, proof, &why))
            << analysis::proof_summary(c, proof) << ": " << why;
    }
}

/// Asserts no engine detects any of `faults` over `vectors`.
void expect_undetected_by_engines(
    const netlist::Circuit& c, std::span<const StuckAtFault> faults,
    std::span<const Vector> vectors,
    std::span<const std::string_view> engines) {
    if (faults.empty()) return;
    for (const auto name : engines) {
        const auto s = sim::engine(name).open(c, copy_faults(faults));
        s->apply(vectors);
        const auto first = s->first_detected_at();
        for (std::size_t i = 0; i < faults.size(); ++i)
            EXPECT_EQ(first[i], -1)
                << name << " detected statically-proven-untestable "
                << gatesim::fault_name(c, faults[i]);
    }
}

// ---- proof soundness -------------------------------------------------------

TEST(AnalysisProofs, AbsorptionFaultsAreProvenAndProofsCheck) {
    const auto c = netlist::parse_bench(kAbsorption, "absorption.bench");
    const auto faults = collapsed_universe(c);
    const AnalysisResult r = find_untestable(c, faults);
    EXPECT_GT(r.stats.proofs, 0u);
    EXPECT_EQ(r.stats.proofs, r.proofs.size());
    EXPECT_EQ(r.untestable.size(), faults.size());
    EXPECT_EQ(r.stop, support::StopReason::None);
    expect_proofs_check(c, r);

    // The marks and the proof list agree fault for fault.
    std::size_t marked = 0;
    for (const auto m : r.untestable) marked += m;
    EXPECT_EQ(marked, r.proofs.size());
}

TEST(AnalysisProofs, CheckerRejectsCorruptedProofs) {
    const auto c = netlist::parse_bench(kAbsorption, "absorption.bench");
    const auto faults = collapsed_universe(c);
    const AnalysisResult r = find_untestable(c, faults);
    ASSERT_FALSE(r.proofs.empty());
    const analysis::UntestableProof& good = r.proofs.front();
    ASSERT_TRUE(analysis::check_proof(c, good));

    // A proof for a different (testable) fault must not certify.  Every
    // fault of this circuit that is NOT marked untestable is detectable,
    // so transplanting the proof onto one must fail.
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (r.untestable[i]) continue;
        analysis::UntestableProof forged = good;
        forged.fault = faults[i];
        EXPECT_FALSE(analysis::check_proof(c, forged))
            << "forged proof accepted for testable "
            << gatesim::fault_name(c, faults[i]);
    }

    // Corrupting a derived literal in a chain must be caught: the flipped
    // step is no longer forced by its gate.
    analysis::UntestableProof twisted = good;
    auto chain = *twisted.b0.chain;  // deep copy of the shared derivation
    bool flipped = false;
    for (auto& step : chain) {
        if (step.kind == analysis::StepKind::Implied) {
            step.lit.value = !step.lit.value;
            flipped = true;
            break;
        }
    }
    if (flipped) {
        twisted.b0.chain = std::make_shared<const std::vector<
            analysis::ProofStep>>(std::move(chain));
        EXPECT_FALSE(analysis::check_proof(c, twisted));
    }
}

// ---- differential: static verdicts vs dynamic methods ----------------------

TEST(AnalysisDifferential, C432ProofsConfirmedByPodemAndAllEngines) {
    const auto c = netlist::build_c432();
    const auto faults = collapsed_universe(c);
    const AnalysisResult r = find_untestable(c, faults);
    EXPECT_GT(r.stats.proofs, 0u);
    expect_proofs_check(c, r);
    const auto proven = proven_faults(faults, r);

    // PODEM with an ample backtrack budget must prove each Redundant.
    atpg::TestGenOptions opt;
    opt.max_random = 0;
    opt.backtrack_limit = 1 << 20;
    const auto gen = atpg::generate_test_set(c, proven, opt);
    for (std::size_t i = 0; i < proven.size(); ++i)
        EXPECT_EQ(gen.status[i], atpg::FaultStatus::Redundant)
            << gatesim::fault_name(c, proven[i]);

    // And neither engine detects one over 10k random vectors.
    gatesim::RandomPatternGenerator rng(11);
    const auto vectors = rng.vectors(c, 10000);
    expect_undetected_by_engines(c, proven, vectors, sim::engine_names());
}

TEST(AnalysisDifferential, Synth2kProofsConfirmedByAtpgAndEngines) {
    const auto c = netlist::load_bench_file(std::string(DLPROJ_DATA_DIR) +
                                            "/synth_2k.bench");
    const auto faults = collapsed_universe(c);
    const AnalysisResult r = find_untestable(c, faults);
    EXPECT_GT(r.stats.proofs, 100u);  // the fixture is redundancy-rich
    expect_proofs_check(c, r);
    const auto proven = proven_faults(faults, r);

    // A full unmarked ATPG run (random phase + PODEM per miss) must never
    // detect a statically proven fault.  Search is bounded, so a proof
    // may end Aborted — but Detected would be a soundness bug.
    atpg::TestGenOptions opt;
    opt.max_random = 512;
    opt.backtrack_limit = 128;
    const auto gen = atpg::generate_test_set(c, copy_faults(faults), opt);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (!r.untestable[i]) continue;
        EXPECT_NE(gen.status[i], atpg::FaultStatus::Detected)
            << gatesim::fault_name(c, faults[i]);
        EXPECT_EQ(gen.first_detected_at[i], -1)
            << gatesim::fault_name(c, faults[i]);
    }

    // The bit-parallel levelized engine takes the whole proven set over
    // 10k vectors; the vector-serial naive oracle takes a deterministic
    // sample.
    gatesim::RandomPatternGenerator rng(17);
    const auto vectors = rng.vectors(c, 10000);
    const std::string_view fast[] = {"levelized"};
    expect_undetected_by_engines(c, proven, vectors, fast);
    std::vector<StuckAtFault> sample;
    for (std::size_t i = 0; i < proven.size(); i += 37)
        sample.push_back(proven[i]);
    const std::string_view naive[] = {"naive"};
    const auto few = rng.vectors(c, 512);
    expect_undetected_by_engines(c, sample, few, naive);
}

TEST(AnalysisSoundness, RandomCircuitSweepVsExhaustiveSimulation) {
    // 50 seeded random circuits; every proof must check, and — the inputs
    // being few — exhaustive simulation over the full input space must
    // confirm no proven fault is ever detected.
    std::size_t proofs_seen = 0;
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        const auto c = netlist::build_random_circuit(
            4 + static_cast<int>(trial % 5),
            12 + static_cast<int>((trial * 7) % 30), 9000 + trial);
        const auto faults = collapsed_universe(c);
        const AnalysisResult r = find_untestable(c, faults);
        expect_proofs_check(c, r);
        const auto proven = proven_faults(faults, r);
        proofs_seen += proven.size();
        if (proven.empty()) continue;

        const std::size_t inputs = c.inputs().size();
        ASSERT_LE(inputs, 16u);
        std::vector<Vector> all;
        all.reserve(std::size_t{1} << inputs);
        for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << inputs);
             ++bits) {
            Vector v(inputs);
            for (std::size_t i = 0; i < inputs; ++i)
                v[i] = (bits >> i) & 1;
            all.push_back(std::move(v));
        }
        const std::string_view oracle[] = {"naive"};
        expect_undetected_by_engines(c, proven, all, oracle);
    }
    // The sweep is only meaningful if redundancy actually occurs.
    EXPECT_GT(proofs_seen, 0u);
}

// ---- collapsing × marks ----------------------------------------------------

TEST(AnalysisMarks, ExpandMarksCoverWholeEquivalenceClasses) {
    const auto c = netlist::build_c432();
    const auto universe = gatesim::full_fault_universe(c);
    const auto collapsed = gatesim::collapse_faults(c, universe);
    const AnalysisResult r = find_untestable(c, collapsed);
    ASSERT_GT(r.stats.proofs, 0u);

    const auto expanded = gatesim::expand_untestable_marks(
        c, universe, collapsed, r.untestable);
    ASSERT_EQ(expanded.size(), universe.size());

    // Independently partition the universe and check: a class is marked
    // iff its collapsed representative is marked, with no partial classes.
    const auto cls = gatesim::equivalence_classes(c, universe);
    std::map<std::size_t, int> class_mark;  // -1 unseen sentinel via find
    for (std::size_t i = 0; i < universe.size(); ++i) {
        const auto it = class_mark.find(cls[i]);
        if (it == class_mark.end())
            class_mark[cls[i]] = expanded[i];
        else
            EXPECT_EQ(it->second, static_cast<int>(expanded[i]))
                << "partially marked equivalence class at "
                << gatesim::fault_name(c, universe[i]);
    }
    std::size_t marked_classes = 0;
    for (const auto& [id, m] : class_mark) marked_classes += m != 0;
    std::size_t marked_collapsed = 0;
    for (const auto m : r.untestable) marked_collapsed += m;
    EXPECT_EQ(marked_classes, marked_collapsed);
}

TEST(AnalysisMarks, EnginesAndAtpgRejectMismatchedMaskSizes) {
    const auto c = netlist::build_c17();
    const auto faults = collapsed_universe(c);
    for (const auto name : sim::engine_names()) {
        sim::SessionOptions opt;
        opt.untestable.assign(faults.size() + 1, 0);
        EXPECT_THROW(sim::engine(name).open(c, copy_faults(faults), {}, opt),
                     std::invalid_argument)
            << name;
    }
    atpg::TestGenOptions opt;
    opt.untestable.assign(faults.size() + 1, 0);
    EXPECT_THROW(atpg::generate_test_set(c, copy_faults(faults), opt),
                 std::invalid_argument);
}

TEST(AnalysisMarks, MarkedFaultsAreSkippedNotPreCounted) {
    // Marks must only *skip* work, never preset detection state: counts
    // for marked faults stay zero and unmarked faults are bit-identical
    // to an unmarked run.
    const auto c = netlist::build_c17();
    const auto faults = collapsed_universe(c);
    gatesim::RandomPatternGenerator rng(3);
    const auto vectors = rng.vectors(c, 64);
    std::vector<std::uint8_t> marks(faults.size(), 0);
    marks[1] = 1;
    marks[4] = 1;
    for (const auto name : sim::engine_names()) {
        const auto plain = sim::engine(name).open(c, copy_faults(faults));
        plain->apply(vectors);
        sim::SessionOptions opt;
        opt.untestable = marks;
        const auto masked =
            sim::engine(name).open(c, copy_faults(faults), {}, opt);
        masked->apply(vectors);
        const auto pf = plain->first_detected_at();
        const auto mf = masked->first_detected_at();
        for (std::size_t i = 0; i < faults.size(); ++i) {
            if (marks[i])
                EXPECT_EQ(mf[i], -1) << name << " fault " << i;
            else
                EXPECT_EQ(mf[i], pf[i]) << name << " fault " << i;
        }
    }
}

// ---- budget stops ----------------------------------------------------------

TEST(AnalysisCancellation, StoppedRunYieldsExactProofPrefix) {
    const auto c = netlist::load_bench_file(std::string(DLPROJ_DATA_DIR) +
                                            "/synth_2k.bench");
    const auto faults = collapsed_universe(c);
    const AnalysisResult full = find_untestable(c, faults);
    ASSERT_EQ(full.stop, support::StopReason::None);
    ASSERT_GT(full.proofs.size(), 0u);

    // A pre-cancelled budget stops at the first pivot boundary.
    {
        AnalysisOptions opt;
        opt.budget.cancel.request();
        const AnalysisResult r = find_untestable(c, faults, opt);
        EXPECT_EQ(r.stop, support::StopReason::Cancelled);
        EXPECT_EQ(r.stats.pivots_done, 0u);
        EXPECT_TRUE(r.proofs.empty());
    }

    // A mid-run cancellation (requested from another thread) stops at an
    // arbitrary pivot boundary; the proof list must still be an exact
    // prefix of the unbounded run's.
    AnalysisOptions opt;
    support::CancelToken cancel = opt.budget.cancel;
    std::thread trigger([cancel]() mutable {
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        cancel.request();
    });
    const AnalysisResult r = find_untestable(c, faults, opt);
    trigger.join();
    if (r.stop == support::StopReason::None) {
        GTEST_SKIP() << "run finished before the cancel landed";
    }
    EXPECT_LE(r.stats.pivots_done, r.stats.pivots_total);
    ASSERT_LE(r.proofs.size(), full.proofs.size());
    for (std::size_t i = 0; i < r.proofs.size(); ++i) {
        EXPECT_EQ(r.proofs[i].fault, full.proofs[i].fault) << "proof " << i;
        EXPECT_EQ(r.proofs[i].pivot, full.proofs[i].pivot) << "proof " << i;
    }
    // The marks match the prefix exactly, fault for fault.
    std::size_t marked = 0;
    for (const auto m : r.untestable) marked += m;
    EXPECT_EQ(marked, r.proofs.size());
}

// ---- pivots in parallel ----------------------------------------------------

bool same_steps(const std::vector<analysis::ProofStep>& a,
                const std::vector<analysis::ProofStep>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const analysis::ProofStep& x = a[i];
        const analysis::ProofStep& y = b[i];
        if (x.kind != y.kind || x.lit != y.lit || x.gate != y.gate ||
            x.split != y.split || x.lits != y.lits ||
            !same_steps(x.branch0, y.branch0) ||
            !same_steps(x.branch1, y.branch1))
            return false;
    }
    return true;
}

void expect_same_branch(const analysis::BranchEvidence& a,
                        const analysis::BranchEvidence& b,
                        const std::string& where) {
    EXPECT_EQ(a.assumption, b.assumption) << where;
    EXPECT_EQ(a.reason, b.reason) << where;
    EXPECT_EQ(a.blockers, b.blockers) << where;
    ASSERT_TRUE(a.chain && b.chain) << where;
    EXPECT_TRUE(same_steps(*a.chain, *b.chain)) << where << ": chain";
}

void expect_same_proof(const analysis::UntestableProof& a,
                       const analysis::UntestableProof& b,
                       const std::string& where) {
    EXPECT_EQ(a.fault, b.fault) << where;
    EXPECT_EQ(a.pivot, b.pivot) << where;
    expect_same_branch(a.b0, b.b0, where + " b0");
    expect_same_branch(a.b1, b.b1, where + " b1");
}

/// Every proof field, the marks, every stat and the stop reason.
void expect_same_result(const AnalysisResult& a, const AnalysisResult& b,
                        const std::string& label) {
    EXPECT_EQ(a.stop, b.stop) << label;
    EXPECT_EQ(a.untestable, b.untestable) << label;
    EXPECT_EQ(a.stats.pivots_done, b.stats.pivots_done) << label;
    EXPECT_EQ(a.stats.pivots_total, b.stats.pivots_total) << label;
    EXPECT_EQ(a.stats.implications, b.stats.implications) << label;
    EXPECT_EQ(a.stats.learned, b.stats.learned) << label;
    EXPECT_EQ(a.stats.constant_lines, b.stats.constant_lines) << label;
    EXPECT_EQ(a.stats.proofs, b.stats.proofs) << label;
    ASSERT_EQ(a.proofs.size(), b.proofs.size()) << label;
    for (std::size_t i = 0; i < a.proofs.size(); ++i)
        expect_same_proof(a.proofs[i], b.proofs[i],
                          label + " proof " + std::to_string(i));
}

AnalysisResult run_threads(const netlist::Circuit& c,
                           std::span<const StuckAtFault> faults,
                           int threads) {
    AnalysisOptions opt;
    opt.parallel.threads = threads;
    return find_untestable(c, faults, opt);
}

/// Runs at 1, 2, 4 and 8 threads and compares everything to the serial
/// run, whose proofs must all check; returns the serial result.
AnalysisResult expect_thread_invariant(const netlist::Circuit& c,
                                       const std::string& label) {
    const auto faults = collapsed_universe(c);
    const AnalysisResult serial = run_threads(c, faults, 1);
    EXPECT_EQ(serial.stop, support::StopReason::None) << label;
    EXPECT_EQ(serial.stats.pivots_done, serial.stats.pivots_total) << label;
    expect_proofs_check(c, serial);
    for (const int threads : {2, 4, 8})
        expect_same_result(serial, run_threads(c, faults, threads),
                           label + " @" + std::to_string(threads));
    return serial;
}

TEST(AnalysisParallel, ClosureHasNoHistory) {
    // The premise of the parallel pass: a closure is the same on a fresh
    // engine as on one that closed other pivots before, in any order, and
    // the same in a fresh buffer as in one a worker refills.
    const auto c = netlist::build_c432();
    const gatesim::LevelizedCircuit lc = gatesim::levelize(c);
    analysis::ImplicationEngine forward(lc);
    std::vector<analysis::Closure> first(2 * lc.net_count);
    for (NetId p = 0; p < lc.net_count; ++p)
        for (const bool v : {false, true})
            forward.close(analysis::Literal{p, v},
                          first[2 * p + (v ? 1 : 0)]);
    analysis::ImplicationEngine backward(lc);
    analysis::Closure c2;
    for (NetId p = lc.net_count; p-- > 0;)
        for (const bool v : {true, false}) {
            backward.close(analysis::Literal{p, v}, c2);
            const analysis::Closure& c1 = first[2 * p + (v ? 1 : 0)];
            EXPECT_EQ(c1.conflict, c2.conflict) << "net " << p;
            EXPECT_EQ(c1.forced, c2.forced) << "net " << p;
            EXPECT_TRUE(same_steps(c1.chain, c2.chain)) << "net " << p;
        }
    EXPECT_EQ(forward.implications(), backward.implications());
    EXPECT_EQ(forward.learned(), backward.learned());
}

TEST(AnalysisParallel, C432IdenticalAtEveryThreadCount) {
    const AnalysisResult r =
        expect_thread_invariant(netlist::build_c432(), "c432");
    EXPECT_GT(r.stats.proofs, 0u);
}

TEST(AnalysisParallel, Synth2kIdenticalAtEveryThreadCount) {
    const auto c = netlist::load_bench_file(std::string(DLPROJ_DATA_DIR) +
                                            "/synth_2k.bench");
    const AnalysisResult r = expect_thread_invariant(c, "synth_2k");
    EXPECT_GT(r.stats.proofs, 0u);
}

TEST(AnalysisParallel, RandomCircuitsIdenticalAtEveryThreadCount) {
    std::size_t proofs = 0;
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        const auto c = netlist::build_random_circuit(
            8 + static_cast<int>(trial % 9),
            60 + static_cast<int>((trial * 37) % 240), 4100 + trial);
        proofs += expect_thread_invariant(c, "random " + std::to_string(trial))
                      .stats.proofs;
    }
    EXPECT_GT(proofs, 0u);  // the comparison must cover some proofs
}

TEST(AnalysisParallel, PreCancelledBudgetClaimsNoPivot) {
    const auto c = netlist::build_c432();
    const auto faults = collapsed_universe(c);
    AnalysisOptions opt;
    opt.parallel.threads = 4;
    opt.budget.cancel.request();
    const AnalysisResult r = find_untestable(c, faults, opt);
    EXPECT_EQ(r.stop, support::StopReason::Cancelled);
    EXPECT_EQ(r.stats.pivots_done, 0u);
    EXPECT_EQ(r.stats.implications, 0u);
    EXPECT_EQ(r.stats.proofs, 0u);
    EXPECT_TRUE(r.proofs.empty());
    EXPECT_EQ(std::count(r.untestable.begin(), r.untestable.end(), 1), 0);
}

TEST(AnalysisParallel, MidRunCancelYieldsExactPrefix) {
    const auto c = netlist::load_bench_file(std::string(DLPROJ_DATA_DIR) +
                                            "/synth_2k.bench");
    const auto faults = collapsed_universe(c);
    const AnalysisResult full = run_threads(c, faults, 4);
    ASSERT_EQ(full.stop, support::StopReason::None);

    // The cancel lands at an arbitrary claim; retry with shorter delays
    // until one run is actually stopped mid-way.
    AnalysisResult r;
    for (const int delay_ms : {80, 40, 20, 10, 5, 2, 1}) {
        AnalysisOptions opt;
        opt.parallel.threads = 4;
        support::CancelToken cancel = opt.budget.cancel;
        std::thread trigger([cancel, delay_ms]() mutable {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
            cancel.request();
        });
        r = find_untestable(c, faults, opt);
        trigger.join();
        if (r.stop != support::StopReason::None) break;
    }
    if (r.stop == support::StopReason::None)
        GTEST_SKIP() << "every run finished before its cancel landed";
    ASSERT_EQ(r.stop, support::StopReason::Cancelled);
    ASSERT_LT(r.stats.pivots_done, r.stats.pivots_total);

    // Exactly the full run's proofs whose pivot was committed, in order,
    // and exactly their faults marked.
    std::size_t prefix = 0;
    while (prefix < full.proofs.size() &&
           full.proofs[prefix].pivot < r.stats.pivots_done)
        ++prefix;
    ASSERT_EQ(r.proofs.size(), prefix);
    EXPECT_EQ(r.stats.proofs, prefix);
    std::vector<std::uint8_t> marks(faults.size(), 0);
    for (std::size_t i = 0; i < faults.size(); ++i)
        for (std::size_t k = 0; k < prefix; ++k)
            if (full.proofs[k].fault == faults[i]) marks[i] = 1;
    EXPECT_EQ(r.untestable, marks);
    for (std::size_t i = 0; i < prefix; ++i)
        expect_same_proof(r.proofs[i], full.proofs[i],
                          "proof " + std::to_string(i));
    EXPECT_LE(r.stats.implications, full.stats.implications);
    EXPECT_LE(r.stats.constant_lines, full.stats.constant_lines);
}

// ---- flow integration ------------------------------------------------------

TEST(AnalysisFlow, CorrectedCoverageDivergesFromRawOnRedundantLogic) {
    const auto c = netlist::parse_bench(kAbsorption, "absorption.bench");
    flow::ExperimentOptions opt;
    opt.analysis = true;
    opt.atpg.seed = 5;
    flow::ExperimentRunner runner(c, opt);
    const flow::ExperimentResult& r = runner.run();

    EXPECT_GT(r.untestable_faults, 0u);
    EXPECT_GT(r.analysis_stats.pivots_done, 0u);
    ASSERT_FALSE(r.t_curve.empty());
    ASSERT_EQ(r.t_curve_raw.size(), r.t_curve.size());
    // Redundant faults are excluded from the corrected denominator only,
    // so raw coverage is strictly below corrected coverage at the end.
    EXPECT_LT(r.t_curve_raw.final(), r.t_curve.final());
    EXPECT_EQ(r.t_curve.final(), 1.0);
    EXPECT_FALSE(r.dl_vs_t_raw.empty());
    // The raw fit sees a coverage plateau below 1, so its fitted curve
    // differs from the corrected fit.
    EXPECT_NE(r.fit_raw.theta_max, r.fit.theta_max);
}

TEST(AnalysisFlow, AnalysisOffLeavesResultWithoutRawCurves) {
    const auto c = netlist::parse_bench(kAbsorption, "absorption.bench");
    flow::ExperimentOptions opt;
    opt.atpg.seed = 5;
    flow::ExperimentRunner runner(c, opt);
    const flow::ExperimentResult& r = runner.run();
    EXPECT_EQ(r.untestable_faults, 0u);
    EXPECT_TRUE(r.t_curve_raw.empty());
    EXPECT_TRUE(r.dl_vs_t_raw.empty());
}

TEST(AnalysisFlow, PreCancelledBudgetReportsAnalysisInterruption) {
    const auto c = netlist::build_c17();
    flow::ExperimentOptions opt;
    opt.analysis = true;
    opt.budget.cancel.request();
    flow::ExperimentRunner runner(c, opt);
    const flow::ExperimentResult& r = runner.run();
    ASSERT_TRUE(r.interruption.has_value());
    EXPECT_EQ(r.interruption->stage, "analysis");
    EXPECT_EQ(r.interruption->reason, support::StopReason::Cancelled);
}

TEST(AnalysisFlow, EnvKillSwitchDisablesTheStage) {
    ::setenv("DLPROJ_ANALYSIS", "off", 1);
    const auto c = netlist::parse_bench(kAbsorption, "absorption.bench");
    flow::ExperimentOptions opt;
    opt.analysis = true;
    flow::ExperimentRunner runner(c, opt);
    const flow::ExperimentResult& r = runner.run();
    ::unsetenv("DLPROJ_ANALYSIS");
    EXPECT_EQ(r.untestable_faults, 0u);
    EXPECT_TRUE(r.t_curve_raw.empty());
}

}  // namespace
}  // namespace dlp
