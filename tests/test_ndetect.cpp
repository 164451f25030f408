// The n-detection suite (CTest label `ndetect`).
//
// Two families of guarantees:
//   * Differential — the n-detection machinery at target 1 is the classic
//     single-detection pipeline, bit for bit: sessions opened with
//     SessionOptions{1} match default-opened sessions, the derived count
//     tables are the 0/1 image of the first-detection table, and the n=1
//     ATPG sequence is untouched by the (inert) top-up knobs.  At targets
//     > 1, the levelized engine matches the naive oracle's count and
//     nth-detection tables.
//   * Metamorphic — detection counts are monotone in the applied prefix
//     and saturate consistently across targets (counts_m == min(counts_n,
//     m) for m <= n over a fixed sequence), and the n-detect ATPG sequence
//     extends the n=1 sequence vector for vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "atpg/generate.h"
#include "gatesim/engine.h"
#include "gatesim/patterns.h"
#include "model/ndetect.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"

namespace dlp {
namespace {

using gatesim::Circuit;
using gatesim::RandomPatternGenerator;
using gatesim::StuckAtFault;
using gatesim::Vector;
using netlist::build_c17;
using netlist::build_c432;
using netlist::build_random_circuit;

std::vector<StuckAtFault> copy_faults(std::span<const StuckAtFault> faults) {
    return {faults.begin(), faults.end()};
}

std::vector<int> to_vec(std::span<const int> s) {
    return {s.begin(), s.end()};
}

// ---- differential: target 1 is the classic pipeline -----------------------

/// Opens `engine_name` twice over the same workload — once with the default
/// options, once with an explicit target of 1 — and asserts the runs are
/// bit-identical, with the count tables the trivial image of the
/// first-detection table.
void expect_target_one_is_classic(const Circuit& c,
                                  std::span<const StuckAtFault> faults,
                                  std::span<const Vector> vectors,
                                  std::string_view engine_name) {
    const auto classic = sim::engine(engine_name).open(c, copy_faults(faults));
    classic->apply(vectors);
    const auto explicit1 =
        sim::engine(engine_name)
            .open(c, copy_faults(faults), {}, sim::SessionOptions{1});
    explicit1->apply(vectors);

    EXPECT_EQ(classic->ndetect_target(), 1) << engine_name;
    EXPECT_EQ(explicit1->ndetect_target(), 1) << engine_name;
    const auto first = to_vec(classic->first_detected_at());
    ASSERT_EQ(to_vec(explicit1->first_detected_at()), first) << engine_name;
    ASSERT_EQ(explicit1->coverage_curve(), classic->coverage_curve())
        << engine_name;

    const auto counts = classic->detection_counts();
    const auto nth = classic->nth_detected_at();
    ASSERT_EQ(counts.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(counts[i], first[i] >= 0 ? 1 : 0)
            << engine_name << " fault " << i;
        EXPECT_EQ(nth[i], first[i]) << engine_name << " fault " << i;
    }
    EXPECT_EQ(explicit1->detection_counts(), counts) << engine_name;
    EXPECT_EQ(explicit1->nth_detected_at(), nth) << engine_name;
    EXPECT_EQ(classic->fully_detected_count(), classic->detected_count())
        << engine_name;
}

TEST(NDetectDifferential, TargetOneIsClassicOnC432) {
    const Circuit c = build_c432();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    RandomPatternGenerator rng(7);
    const auto vectors = rng.vectors(c, 96);
    for (const auto name : sim::engine_names())
        expect_target_one_is_classic(c, faults,
                                     std::span<const Vector>(vectors), name);
}

TEST(NDetectDifferential, TargetOneIsClassicOnSynthFixture) {
    // The generated-circuit fixture exercises a netlist shape the ISCAS
    // builders don't; the naive oracle is too slow here, so run the
    // production engine only.
    const Circuit c =
        netlist::load_bench_file(std::string(DLPROJ_DATA_DIR) +
                                 "/synth_2k.bench");
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    RandomPatternGenerator rng(21);
    const auto vectors = rng.vectors(c, 64);
    expect_target_one_is_classic(c, faults, std::span<const Vector>(vectors),
                                 "levelized");
}

TEST(NDetectDifferential, AllEnginesMatchNaiveAtHigherTargets) {
    for (int n : {2, 4, 8}) {
        const sim::SessionOptions opt{n};
        for (std::uint64_t trial = 0; trial < 8; ++trial) {
            const Circuit c = build_random_circuit(
                5 + static_cast<int>(trial % 3),
                10 + static_cast<int>((trial * 5) % 20), 3000 + trial);
            const auto faults = gatesim::full_fault_universe(c);
            RandomPatternGenerator rng(trial + 1);
            const auto vectors = rng.vectors(c, 130);
            const std::span<const Vector> all(vectors);

            const auto oracle =
                sim::engine("naive").open(c, copy_faults(faults), {}, opt);
            oracle->apply(all);
            for (const auto name : sim::engine_names()) {
                if (name == "naive") continue;
                const auto s =
                    sim::engine(name).open(c, copy_faults(faults), {}, opt);
                s->apply(all);
                EXPECT_EQ(s->ndetect_target(), n) << name;
                ASSERT_EQ(to_vec(s->first_detected_at()),
                          to_vec(oracle->first_detected_at()))
                    << name << " n=" << n << " " << c.name();
                ASSERT_EQ(s->detection_counts(), oracle->detection_counts())
                    << name << " n=" << n << " " << c.name();
                ASSERT_EQ(s->nth_detected_at(), oracle->nth_detected_at())
                    << name << " n=" << n << " " << c.name();
            }
        }
    }
}

// ---- metamorphic: count-table laws ----------------------------------------

TEST(NDetectMetamorphic, CountsSaturateConsistentlyAcrossTargets) {
    // Over a fixed sequence, a fault's detecting positions are fixed, so
    // the saturated counts must satisfy counts_m == min(counts_n, m) for
    // any m <= n — dropping a fault early (lower target) loses exactly the
    // detections past the saturation point and nothing else.
    const Circuit c = build_c17();
    const auto faults = gatesim::full_fault_universe(c);
    RandomPatternGenerator rng(5);
    const auto vectors = rng.vectors(c, 120);
    const std::span<const Vector> all(vectors);

    std::map<int, std::vector<int>> counts, nth;
    for (int n : {1, 2, 4, 8}) {
        const auto s = sim::engine("levelized")
                           .open(c, copy_faults(faults), {},
                                 sim::SessionOptions{n});
        s->apply(all);
        counts[n] = s->detection_counts();
        nth[n] = s->nth_detected_at();
    }
    for (int m : {1, 2, 4}) {
        for (int n : {2, 4, 8}) {
            if (m >= n) continue;
            for (std::size_t i = 0; i < faults.size(); ++i) {
                EXPECT_EQ(counts[m][i], std::min(counts[n][i], m))
                    << "fault " << i << " m=" << m << " n=" << n;
                // A fault that reached the larger target reached the
                // smaller one no later.
                if (nth[n][i] >= 0) {
                    ASSERT_GE(nth[m][i], 0) << "fault " << i;
                    EXPECT_LE(nth[m][i], nth[n][i]) << "fault " << i;
                }
            }
        }
    }
}

TEST(NDetectMetamorphic, CountsMonotoneInAppliedPrefix) {
    const Circuit c = build_random_circuit(6, 30, 91);
    const auto faults = gatesim::full_fault_universe(c);
    RandomPatternGenerator rng(91);
    const auto vectors = rng.vectors(c, 104);
    const std::span<const Vector> all(vectors);
    const sim::SessionOptions opt{4};

    for (const auto name : sim::engine_names()) {
        // Chunked application (split off a block boundary) must land on
        // the same final state as a one-shot apply, and every prefix's
        // counts must be elementwise <= the full run's.
        const auto oneshot =
            sim::engine(name).open(c, copy_faults(faults), {}, opt);
        oneshot->apply(all);
        const auto chunked =
            sim::engine(name).open(c, copy_faults(faults), {}, opt);
        chunked->apply(all.first(40));
        const auto mid = chunked->detection_counts();
        chunked->apply(all.subspan(40));
        const auto full = chunked->detection_counts();
        ASSERT_EQ(full, oneshot->detection_counts()) << name;
        ASSERT_EQ(chunked->nth_detected_at(), oneshot->nth_detected_at())
            << name;
        for (std::size_t i = 0; i < faults.size(); ++i)
            EXPECT_LE(mid[i], full[i]) << name << " fault " << i;
    }
}

// ---- the n-detect ATPG driver ---------------------------------------------

TEST(NDetectAtpg, ClassicSequenceIsAPrefixAndMixIsInertAtTargetOne) {
    const Circuit c = build_random_circuit(7, 40, 17);
    auto faults = gatesim::collapse_faults(c, gatesim::full_fault_universe(c));

    atpg::TestGenOptions base;
    base.seed = 17;
    base.max_random = 256;
    const auto classic = atpg::generate_test_set(c, faults, base);
    EXPECT_EQ(classic.ndetect, 1);
    EXPECT_EQ(classic.topup_random_count, 0);
    EXPECT_EQ(classic.topup_weighted_count, 0);
    EXPECT_EQ(classic.topup_deterministic_count, 0);

    // The mix knob is inert at n=1: any value generates the same bytes.
    for (const auto mix :
         {atpg::NDetectMix::Random, atpg::NDetectMix::WeightedRandom,
          atpg::NDetectMix::Deterministic}) {
        auto o = base;
        o.ndetect_mix = mix;
        const auto r = atpg::generate_test_set(c, faults, o);
        ASSERT_EQ(r.vectors, classic.vectors)
            << "mix " << atpg::ndetect_mix_name(mix);
        ASSERT_EQ(r.first_detected_at, classic.first_detected_at);
    }

    // An n-detect run extends the classic sequence vector for vector.
    for (int n : {2, 4}) {
        auto o = base;
        o.ndetect = n;
        const auto r = atpg::generate_test_set(c, faults, o);
        EXPECT_EQ(r.ndetect, n);
        EXPECT_EQ(r.random_count, classic.random_count);
        EXPECT_EQ(r.deterministic_count, classic.deterministic_count);
        ASSERT_GE(r.vectors.size(), classic.vectors.size());
        for (std::size_t i = 0; i < classic.vectors.size(); ++i)
            ASSERT_EQ(r.vectors[i], classic.vectors[i]) << "vector " << i;
        // The classic per-fault outcome is untouched by the top-up.
        ASSERT_EQ(r.first_detected_at, classic.first_detected_at);
        ASSERT_EQ(r.status, classic.status);
    }
}

TEST(NDetectAtpg, CountsMatchFreshResimulationAndTopupIsDistinct) {
    const Circuit c = build_c17();
    auto faults = gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    atpg::TestGenOptions o;
    o.seed = 3;
    o.ndetect = 4;
    // Starve the random phase so the top-up phase must supply most of the
    // multiplicity (an unconstrained random phase saturates tiny c17 by
    // itself, leaving nothing to top up).
    o.random_block = 4;
    o.max_random = 4;
    const auto r = atpg::generate_test_set(c, faults, o);
    EXPECT_GT(r.topup_random_count + r.topup_weighted_count +
                  r.topup_deterministic_count,
              0);

    // Oracle: the recorded tables are a pure function of the sequence —
    // a fresh session over the generated vectors must reproduce them.
    const auto s = sim::engine("naive").open(c, copy_faults(faults), {},
                                             sim::SessionOptions{4});
    s->apply(std::span<const Vector>(r.vectors));
    EXPECT_EQ(to_vec(s->first_detected_at()), r.first_detected_at);
    EXPECT_EQ(s->detection_counts(), r.detection_counts);
    EXPECT_EQ(s->nth_detected_at(), r.nth_detected_at);

    // Distinctness: counts reflect distinct tests, so every top-up vector
    // appears exactly once in the whole sequence.
    const std::size_t prefix = r.vectors.size() -
                               static_cast<std::size_t>(
                                   r.topup_random_count +
                                   r.topup_weighted_count +
                                   r.topup_deterministic_count);
    std::map<Vector, int> occurrences;
    for (const Vector& v : r.vectors) ++occurrences[v];
    for (std::size_t i = prefix; i < r.vectors.size(); ++i)
        EXPECT_EQ(occurrences[r.vectors[i]], 1) << "top-up vector " << i;

    // c17 has no redundant faults, so a Mixed top-up must reach the
    // target on every fault.
    ASSERT_EQ(r.redundant, 0u);
    for (std::size_t i = 0; i < r.detection_counts.size(); ++i)
        EXPECT_EQ(r.detection_counts[i], 4) << "fault " << i;
}

TEST(NDetectAtpg, VectorBudgetYieldsPrefixOfUnboundedRun) {
    const Circuit c = build_random_circuit(6, 24, 29);
    auto faults = gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    atpg::TestGenOptions o;
    o.seed = 29;
    o.ndetect = 4;
    const auto full = atpg::generate_test_set(c, faults, o);
    ASSERT_GT(full.vectors.size(), 20u);

    auto capped = o;
    capped.budget.max_vectors = 20;
    const auto r = atpg::generate_test_set(c, faults, capped);
    EXPECT_EQ(r.stop, support::StopReason::VectorBudget);
    ASSERT_EQ(r.vectors.size(), 20u);
    for (std::size_t i = 0; i < r.vectors.size(); ++i)
        ASSERT_EQ(r.vectors[i], full.vectors[i]) << "vector " << i;
}

// ---- the quality profile --------------------------------------------------

TEST(NDetectProfile, TargetOneReducesToClassicCoverage) {
    const Circuit c = build_c432();
    auto faults = gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    atpg::TestGenOptions o;
    o.seed = 11;
    const auto r = atpg::generate_test_set(c, faults, o);
    std::vector<std::uint8_t> redundant(r.status.size(), 0);
    for (std::size_t i = 0; i < r.status.size(); ++i)
        redundant[i] = r.status[i] == atpg::FaultStatus::Redundant ? 1 : 0;
    const auto p = model::ndetect_profile(r.detection_counts, 1, redundant);
    EXPECT_EQ(p.faults, r.status.size() - r.redundant);
    EXPECT_DOUBLE_EQ(p.worst_case_coverage, r.coverage());
    EXPECT_DOUBLE_EQ(p.avg_case_coverage, r.coverage());
}

TEST(NDetectProfile, WorstCaseIsMonotoneNonIncreasingInN) {
    // Grading one fixed count table against growing targets: the worst
    // case (fraction at target) can only fall, the average case likewise.
    const std::vector<int> counts{5, 3, 1, 0, 8, 2, 2, 7};
    double prev_wc = 1.0, prev_ac = 1.0;
    for (int n : {1, 2, 4, 8}) {
        std::vector<int> sat(counts);
        for (int& v : sat) v = std::min(v, n);
        const auto p = model::ndetect_profile(sat, n);
        EXPECT_LE(p.worst_case_coverage, prev_wc) << "n=" << n;
        EXPECT_LE(p.avg_case_coverage, prev_ac) << "n=" << n;
        EXPECT_GE(p.avg_case_coverage, p.worst_case_coverage) << "n=" << n;
        std::size_t hist_sum = 0;
        for (const std::size_t k : p.histogram) hist_sum += k;
        EXPECT_EQ(hist_sum, counts.size()) << "n=" << n;
        prev_wc = p.worst_case_coverage;
        prev_ac = p.avg_case_coverage;
    }
}

}  // namespace
}  // namespace dlp
