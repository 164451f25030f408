// The engine differential suite (CTest label `engine`).
//
// Both engines (the naive oracle and the production levelized engine)
// promise bit-identical results: the same first-detection index per
// fault — hence byte-identical coverage curves — for any vector
// sequence, worker count, and budget.
// This suite enforces the promise against the naive scalar oracle over
// c17, c432, and 50 seeded random circuits, including 64-vector block
// boundaries and mid-run budget stops, plus the levelized compiler's IR
// invariants and the fixed engine table itself.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "gatesim/engine.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "netlist/builders.h"

namespace dlp {
namespace {

using gatesim::Circuit;
using gatesim::NetId;
using gatesim::RandomPatternGenerator;
using gatesim::StuckAtFault;
using gatesim::Vector;
using netlist::build_c17;
using netlist::build_c432;
using netlist::build_random_circuit;

std::vector<StuckAtFault> copy_faults(std::span<const StuckAtFault> faults) {
    return {faults.begin(), faults.end()};
}

// ---- the engine table ----------------------------------------------------

TEST(EngineTable, OracleThenLevelized) {
    const auto names = sim::engine_names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "naive");
    EXPECT_EQ(names[1], "levelized");
    for (const auto name : names) {
        const sim::Engine& e = sim::engine(name);
        EXPECT_EQ(e.name(), name);
        EXPECT_FALSE(e.description().empty());
    }
}

TEST(EngineTable, UnknownNamesAreErrors) {
    for (const char* gone : {"bogus", "serial", "ppsfp"}) {
        try {
            sim::engine(gone);
            FAIL() << "expected std::invalid_argument for " << gone;
        } catch (const std::invalid_argument& e) {
            // The message lists the engines for discoverability.
            EXPECT_NE(std::string(e.what()).find("levelized"),
                      std::string::npos);
        }
    }
}

// ---- the levelized compiler ----------------------------------------------

TEST(Levelize, IrInvariants) {
    const Circuit c = build_c432();
    const gatesim::LevelizedCircuit lc = gatesim::levelize(c);
    ASSERT_EQ(lc.net_count, c.gate_count());
    EXPECT_EQ(lc.inputs.size(), c.inputs().size());
    EXPECT_EQ(lc.outputs.size(), c.outputs().size());
    EXPECT_EQ(lc.logic_gate_count(), c.gate_count() - c.inputs().size());

    // Levels match the reference levelization; every fanin sits strictly
    // below its reader.
    const auto ref_levels = c.levels();
    for (NetId g = 0; g < lc.net_count; ++g) {
        EXPECT_EQ(lc.level[g], ref_levels[g]) << "net " << g;
        for (auto i = lc.fanin_begin[g]; i < lc.fanin_begin[g + 1]; ++i)
            EXPECT_LT(lc.level[lc.fanin[i]], lc.level[g]);
    }

    // The schedule covers every non-input gate exactly once, level-major.
    std::set<NetId> seen;
    for (std::size_t i = 0; i < lc.schedule.size(); ++i)
        EXPECT_TRUE(seen.insert(lc.schedule[i]).second);
    EXPECT_EQ(seen.size(), lc.logic_gate_count());
    for (int l = 1; l <= lc.depth; ++l)
        for (auto i = lc.level_begin[static_cast<std::size_t>(l)];
             i < lc.level_begin[static_cast<std::size_t>(l) + 1]; ++i)
            EXPECT_EQ(lc.level[lc.schedule[i]], l);

    // Fanout CSR is the exact transpose of the (deduplicated) fanin rows.
    for (NetId n = 0; n < lc.net_count; ++n)
        for (auto i = lc.fanout_begin[n]; i < lc.fanout_begin[n + 1]; ++i) {
            const NetId r = lc.fanout[i];
            bool reads = false;
            for (auto j = lc.fanin_begin[r]; j < lc.fanin_begin[r + 1]; ++j)
                reads |= lc.fanin[j] == n;
            EXPECT_TRUE(reads) << "net " << n << " -> gate " << r;
        }
}

TEST(Levelize, GoodMachineMatchesReferenceSimulation) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const Circuit c = build_random_circuit(8, 120, seed);
        const gatesim::LevelizedCircuit lc = gatesim::levelize(c);
        RandomPatternGenerator rng(seed);
        const auto vectors = rng.vectors(c, 64);
        const auto block =
            gatesim::pack_vectors(c, std::span<const Vector>(vectors));
        const auto ref = gatesim::simulate_block(c, block);
        std::vector<std::uint64_t> words;
        gatesim::simulate_block_levelized(lc, block, words);
        ASSERT_EQ(words.size(), ref.size());
        for (NetId n = 0; n < lc.net_count; ++n)
            EXPECT_EQ(words[n], ref[n]) << "net " << n << " seed " << seed;
    }
}

// ---- cross-engine bit-identity -------------------------------------------

/// Applies `vectors` through the levelized engine and asserts detection
/// tables and coverage curves byte-identical to the naive oracle's.
void expect_engines_match_naive(const Circuit& c,
                                std::span<const StuckAtFault> faults,
                                std::span<const Vector> vectors,
                                const char* what) {
    const auto oracle = sim::engine("naive").open(c, copy_faults(faults));
    oracle->apply(vectors);
    const auto ref_table = oracle->first_detected_at();
    const auto ref_curve = oracle->coverage_curve();
    for (const auto name : sim::engine_names()) {
        if (name == "naive") continue;
        const auto s = sim::engine(name).open(c, copy_faults(faults));
        s->apply(vectors);
        ASSERT_EQ(s->first_detected_at().size(), ref_table.size());
        for (std::size_t i = 0; i < ref_table.size(); ++i)
            ASSERT_EQ(s->first_detected_at()[i], ref_table[i])
                << what << ": engine " << name << ", fault "
                << gatesim::fault_name(c, faults[i]);
        // Curves derive from the table, but compare them too: they are
        // what the flow and the campaign reports consume.
        ASSERT_EQ(s->coverage_curve(), ref_curve)
            << what << ": engine " << name;
        ASSERT_EQ(s->vectors_applied(), oracle->vectors_applied());
        ASSERT_EQ(s->detected_count(), oracle->detected_count());
        ASSERT_EQ(s->undetected(), oracle->undetected());
    }
}

TEST(EngineDifferential, C17AllEnginesMatchNaive) {
    const Circuit c = build_c17();
    RandomPatternGenerator rng(42);
    const auto vectors = rng.vectors(c, 70);
    expect_engines_match_naive(c, gatesim::full_fault_universe(c),
                               std::span<const Vector>(vectors), "c17");
}

TEST(EngineDifferential, C432AllEnginesMatchNaive) {
    const Circuit c = build_c432();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    RandomPatternGenerator rng(7);
    const auto vectors = rng.vectors(c, 64);
    expect_engines_match_naive(c, faults, std::span<const Vector>(vectors),
                               "c432");
}

TEST(EngineDifferential, FiftyRandomCircuitsMatchNaive) {
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        // Vary shape with the seed: 4-8 inputs, 8-31 gates.
        const int inputs = 4 + static_cast<int>(trial % 5);
        const int gates = 8 + static_cast<int>((trial * 7) % 24);
        const Circuit c = build_random_circuit(inputs, gates, 2000 + trial);
        RandomPatternGenerator rng(trial);
        const auto vectors = rng.vectors(c, 12);
        expect_engines_match_naive(c, gatesim::full_fault_universe(c),
                                   std::span<const Vector>(vectors),
                                   c.name().c_str());
    }
}

TEST(EngineDifferential, BlockBoundaryVectorCounts) {
    // Counts straddling the 64-wide pattern block boundary, where lane
    // masking bugs live.
    const Circuit c = build_random_circuit(6, 24, 77);
    const auto faults = gatesim::full_fault_universe(c);
    for (int n : {1, 63, 64, 65, 70, 128, 129}) {
        RandomPatternGenerator rng(static_cast<std::uint64_t>(n));
        const auto vectors = rng.vectors(c, n);
        expect_engines_match_naive(c, faults,
                                   std::span<const Vector>(vectors),
                                   "boundary");
    }
}

TEST(EngineDifferential, LevelizedMatchesNaiveAtScale) {
    // A deeper workout than the small-circuit sweeps above: 300 gates and
    // 256 vectors (four pattern blocks) against the naive oracle.
    const Circuit c = build_random_circuit(16, 300, 99);
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    RandomPatternGenerator rng(99);
    const auto vectors = rng.vectors(c, 256);

    const auto ref = sim::engine("naive").open(c, copy_faults(faults));
    ref->apply(std::span<const Vector>(vectors));
    const auto lev = sim::engine("levelized").open(c, copy_faults(faults));
    lev->apply(std::span<const Vector>(vectors));
    ASSERT_EQ(lev->first_detected_at().size(),
              ref->first_detected_at().size());
    for (std::size_t i = 0; i < faults.size(); ++i)
        ASSERT_EQ(lev->first_detected_at()[i], ref->first_detected_at()[i])
            << "fault " << gatesim::fault_name(c, faults[i]);
}

// ---- budget / cancellation contract --------------------------------------

TEST(EngineBudget, VectorBudgetCommitsIdenticalPrefix) {
    const Circuit c = build_random_circuit(6, 40, 11);
    const auto faults = gatesim::full_fault_universe(c);
    RandomPatternGenerator rng(11);
    const auto vectors = rng.vectors(c, 128);

    // The budget-stopped run must equal an unbudgeted run over the allowed
    // prefix — engine by engine, and identically across engines.
    support::RunBudget budget;
    budget.max_vectors = 70;
    const auto oracle = sim::engine("naive").open(c, copy_faults(faults));
    oracle->apply(std::span<const Vector>(vectors).first(70));
    for (const auto name : sim::engine_names()) {
        const auto s = sim::engine(name).open(c, copy_faults(faults));
        const auto res =
            s->apply(std::span<const Vector>(vectors), budget);
        EXPECT_EQ(res.stop, support::StopReason::VectorBudget) << name;
        EXPECT_EQ(res.vectors_applied, 70) << name;
        EXPECT_EQ(s->vectors_applied(), 70) << name;
        ASSERT_EQ(s->coverage_curve(), oracle->coverage_curve())
            << "engine " << name;
    }
}

TEST(EngineBudget, MidRunCancellationIsAPrefix) {
    const Circuit c = build_random_circuit(6, 40, 13);
    const auto faults = gatesim::full_fault_universe(c);
    RandomPatternGenerator rng(13);
    const auto vectors = rng.vectors(c, 128);
    const std::span<const Vector> all(vectors);

    for (const auto name : sim::engine_names()) {
        // Reference: the first block only.
        const auto ref = sim::engine(name).open(c, copy_faults(faults));
        ref->apply(all.first(64));

        // Cancel between the two apply calls: the second must commit
        // nothing and report Cancelled, leaving the first call's state.
        support::RunBudget budget;
        const auto s = sim::engine(name).open(c, copy_faults(faults));
        const auto r1 = s->apply(all.first(64), budget);
        EXPECT_EQ(r1.stop, support::StopReason::None) << name;
        budget.cancel.request();
        const auto r2 = s->apply(all.subspan(64), budget);
        EXPECT_EQ(r2.stop, support::StopReason::Cancelled) << name;
        EXPECT_EQ(r2.vectors_applied, 0) << name;
        EXPECT_EQ(r2.newly_detected, 0) << name;
        EXPECT_EQ(s->vectors_applied(), 64) << name;
        const auto table = s->first_detected_at();
        const auto ref_table = ref->first_detected_at();
        ASSERT_EQ(std::vector<int>(table.begin(), table.end()),
                  std::vector<int>(ref_table.begin(), ref_table.end()))
            << "engine " << name;
    }
}

TEST(EngineBudget, WorkerCountInvariance) {
    // The levelized engine's results must not depend on the worker count.
    const Circuit c = build_random_circuit(8, 200, 17);
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    RandomPatternGenerator rng(17);
    const auto vectors = rng.vectors(c, 128);
    const auto one = sim::engine("levelized")
                         .open(c, copy_faults(faults),
                               parallel::ParallelOptions{1});
    one->apply(std::span<const Vector>(vectors));
    for (int threads : {2, 4, 7}) {
        const auto many = sim::engine("levelized")
                              .open(c, copy_faults(faults),
                                    parallel::ParallelOptions{threads});
        many->apply(std::span<const Vector>(vectors));
        const auto a = one->first_detected_at();
        const auto b = many->first_detected_at();
        ASSERT_EQ(std::vector<int>(a.begin(), a.end()),
                  std::vector<int>(b.begin(), b.end()))
            << threads << " workers";
    }
}

// ---- Session convenience accessors ---------------------------------------

TEST(EngineSession, DerivedAccessorsMatchNaive) {
    // The Session-derived accessors agree between the two engines.
    const Circuit c = build_c432();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    RandomPatternGenerator rng(3);
    const auto vectors = rng.vectors(c, 100);

    const auto naive = sim::engine("naive").open(c, copy_faults(faults));
    naive->apply(std::span<const Vector>(vectors));
    gatesim::LevelizedFaultSimulator lev(c, copy_faults(faults));
    lev.apply(std::span<const Vector>(vectors));

    EXPECT_EQ(lev.detected_count(), naive->detected_count());
    EXPECT_EQ(lev.coverage(), naive->coverage());
    EXPECT_EQ(lev.coverage_curve(), naive->coverage_curve());
    EXPECT_EQ(lev.undetected(), naive->undetected());
    EXPECT_EQ(lev.fully_detected_count(), naive->fully_detected_count());
}

}  // namespace
}  // namespace dlp
