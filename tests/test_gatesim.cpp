// Tests for parallel-pattern logic simulation, the stuck-at fault universe,
// fault collapsing and the levelized stuck-at fault simulator.
#include <gtest/gtest.h>

#include <set>

#include "gatesim/bist.h"
#include "gatesim/bridge_sim.h"
#include "gatesim/levelized.h"
#include "gatesim/timing.h"
#include "gatesim/transition.h"
#include "gatesim/patterns.h"
#include "netlist/builders.h"

namespace dlp::gatesim {
namespace {

using netlist::build_c17;
using netlist::build_c432;
using netlist::build_parity_tree;
using netlist::build_ripple_adder;
using netlist::Circuit;
using netlist::GateType;

/// One-shot stuck-at fault simulation: the first-detection table of
/// `vectors` applied in sequence.
std::vector<int> first_detections(const Circuit& circuit,
                                  std::span<const StuckAtFault> faults,
                                  std::span<const Vector> vectors) {
    LevelizedFaultSimulator sim(circuit, {faults.begin(), faults.end()});
    sim.apply(vectors);
    return {sim.first_detected_at().begin(), sim.first_detected_at().end()};
}

TEST(LogicSim, ScalarMatchesParallel) {
    const Circuit c = build_c432();
    RandomPatternGenerator rng(3);
    const auto vectors = rng.vectors(c, 64);
    const PatternBlock block = pack_vectors(c, vectors);
    const auto words = simulate_block(c, block);
    for (int lane = 0; lane < 64; lane += 7) {
        const auto scalar = simulate(c, vectors[static_cast<size_t>(lane)]);
        for (netlist::NetId n = 0; n < c.gate_count(); ++n)
            ASSERT_EQ(scalar[n], ((words[n] >> lane) & 1) != 0)
                << "net " << n << " lane " << lane;
    }
}

TEST(LogicSim, PackRejectsBadInput) {
    const Circuit c = build_c17();
    EXPECT_THROW(pack_vectors(c, {}), std::invalid_argument);
    std::vector<Vector> wrong{Vector(3, false)};
    EXPECT_THROW(pack_vectors(c, wrong), std::invalid_argument);
    std::vector<Vector> many(65, Vector(5, false));
    EXPECT_THROW(pack_vectors(c, many), std::invalid_argument);
}

TEST(Faults, UniverseCountsC17) {
    // c17: 11 nets. Fanout > 1 nets: 3 (from 11), 11 (to 16,19), 16 (to
    // 22,23). So 22 stem + 12 branch = 34 faults.
    const Circuit c = build_c17();
    const auto faults = full_fault_universe(c);
    EXPECT_EQ(faults.size(), 34u);
}

TEST(Faults, CollapseShrinksAndKeepsCoverageMeaning) {
    const Circuit c = build_c17();
    const auto full = full_fault_universe(c);
    const auto collapsed = collapse_faults(c, full);
    EXPECT_LT(collapsed.size(), full.size());
    // Known result for c17: 22 collapsed faults.
    EXPECT_EQ(collapsed.size(), 22u);
}

TEST(Faults, NamesAreStable) {
    const Circuit c = build_c17();
    const StuckAtFault stem{c.find("10"), netlist::kNoNet, -1, true};
    EXPECT_EQ(fault_name(c, stem), "10/SA1");
}

TEST(FaultSim, DetectsInjectedStuckAtOnC17) {
    const Circuit c = build_c17();
    // Exhaustive 32-vector test of all 5 inputs detects all c17 faults.
    std::vector<Vector> vectors;
    for (int i = 0; i < 32; ++i) {
        Vector v(5);
        for (int b = 0; b < 5; ++b) v[static_cast<size_t>(b)] = (i >> b) & 1;
        vectors.push_back(v);
    }
    LevelizedFaultSimulator sim(c, collapse_faults(c, full_fault_universe(c)));
    sim.apply(vectors);
    EXPECT_DOUBLE_EQ(sim.coverage(), 1.0);  // c17 has no redundant faults
}

TEST(FaultSim, CoverageCurveIsMonotone) {
    const Circuit c = build_c432();
    RandomPatternGenerator rng(11);
    LevelizedFaultSimulator sim(c, collapse_faults(c, full_fault_universe(c)));
    sim.apply(rng.vectors(c, 256));
    const auto curve = sim.coverage_curve();
    ASSERT_EQ(curve.size(), 256u);
    for (size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i], curve[i - 1]);
    EXPECT_GT(curve.back(), 0.8);  // randoms reach >80% (paper sec. 3)
    EXPECT_DOUBLE_EQ(curve.back(), sim.coverage());
}

TEST(FaultSim, FirstDetectionIndicesAreOneBasedAndOrdered) {
    const Circuit c = build_c17();
    RandomPatternGenerator rng(1);
    LevelizedFaultSimulator sim(c, collapse_faults(c, full_fault_universe(c)));
    const auto vectors = rng.vectors(c, 64);
    sim.apply(vectors);
    for (int at : sim.first_detected_at()) {
        if (at < 0) continue;
        EXPECT_GE(at, 1);
        EXPECT_LE(at, 64);
    }
}

TEST(FaultSim, IncrementalApplyMatchesOneShot) {
    const Circuit c = build_ripple_adder(5);
    RandomPatternGenerator rng(17);
    const auto vectors = rng.vectors(c, 100);
    const auto faults = collapse_faults(c, full_fault_universe(c));

    LevelizedFaultSimulator once(c, faults);
    once.apply(vectors);

    LevelizedFaultSimulator chunked(c, faults);
    chunked.apply(std::span(vectors).subspan(0, 37));
    chunked.apply(std::span(vectors).subspan(37, 41));
    chunked.apply(std::span(vectors).subspan(78));

    ASSERT_EQ(once.first_detected_at().size(),
              chunked.first_detected_at().size());
    for (size_t i = 0; i < faults.size(); ++i)
        EXPECT_EQ(once.first_detected_at()[i], chunked.first_detected_at()[i]);
}

TEST(FaultSim, BranchFaultDiffersFromStem) {
    // A branch s-a fault must only affect its reader, not the whole stem:
    // y1 = NOT(s), y2 = BUF(s); branch fault s->y1 s-a-1 flips only y1.
    Circuit c("t");
    const auto s = c.add_input("s");
    const auto y1 = c.add_gate(GateType::Not, "y1", {s});
    const auto y2 = c.add_gate(GateType::Buf, "y2", {s});
    c.mark_output(y1);
    c.mark_output(y2);

    const StuckAtFault branch{s, y1, 0, true};
    std::vector<Vector> v0{Vector{false}};
    const auto det = first_detections(c, std::span(&branch, 1), v0);
    EXPECT_EQ(det[0], 1);  // s=0: y1 good=1, faulty=NOT(1)=0 -> detected
    (void)y2;
}

TEST(FaultSim, UndetectableRedundantFaultStaysUndetected) {
    // y = OR(a, NOT(a)) is constant 1; the stem s-a-1 on y is undetectable.
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto na = c.add_gate(GateType::Not, "na", {a});
    const auto y = c.add_gate(GateType::Or, "y", {a, na});
    c.mark_output(y);
    const StuckAtFault f{y, netlist::kNoNet, -1, true};
    std::vector<Vector> vs{Vector{false}, Vector{true}};
    const auto det = first_detections(c, std::span(&f, 1), vs);
    EXPECT_EQ(det[0], -1);
}

class FaultSimProperty : public ::testing::TestWithParam<int> {};

TEST_P(FaultSimProperty, ParityTreeNeedsBothPolarities) {
    // In an XOR tree every stuck-at fault is detectable and random vectors
    // find them quickly (XOR propagates everything).
    const Circuit c = build_parity_tree(GetParam());
    RandomPatternGenerator rng(5);
    LevelizedFaultSimulator sim(c, collapse_faults(c, full_fault_universe(c)));
    sim.apply(rng.vectors(c, 128));
    EXPECT_DOUBLE_EQ(sim.coverage(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FaultSimProperty,
                         ::testing::Values(2, 3, 5, 8, 16));

TEST(Transition, UniverseAndNames) {
    const Circuit c = build_c17();
    const auto faults = full_transition_universe(c);
    EXPECT_EQ(faults.size(), 2 * c.gate_count());
    EXPECT_EQ(transition_fault_name(c, {c.find("10"), true}), "10/STR");
    EXPECT_EQ(transition_fault_name(c, {c.find("10"), false}), "10/STF");
}

TEST(Transition, NeedsTheInitializingVector) {
    // Single inverter y = NOT(a).  STR on a needs the pair (a=0, a=1):
    // with vectors (1, 1) nothing launches; with (0, 1) it is detected at
    // the second vector.
    Circuit c("inv");
    const auto a = c.add_input("a");
    const auto y = c.add_gate(netlist::GateType::Not, "y", {a});
    c.mark_output(y);
    TransitionFaultSimulator sim(c, {{a, true}});
    std::vector<Vector> same{Vector{true}, Vector{true}};
    sim.apply(same);
    EXPECT_EQ(sim.first_detected_at()[0], -1);

    TransitionFaultSimulator sim2(c, {{a, true}});
    std::vector<Vector> pair{Vector{false}, Vector{true}};
    sim2.apply(pair);
    EXPECT_EQ(sim2.first_detected_at()[0], 2);
    (void)y;
}

TEST(Transition, PairAcrossApplyBoundary) {
    Circuit c("inv");
    const auto a = c.add_input("a");
    c.mark_output(c.add_gate(netlist::GateType::Not, "y", {a}));
    TransitionFaultSimulator sim(c, {{a, true}});
    std::vector<Vector> first{Vector{false}};
    std::vector<Vector> second{Vector{true}};
    sim.apply(first);
    EXPECT_EQ(sim.first_detected_at()[0], -1);
    sim.apply(second);
    EXPECT_EQ(sim.first_detected_at()[0], 2) << "pair spans apply() calls";
}

TEST(Transition, RandomVectorsCoverAdder) {
    const Circuit c = build_ripple_adder(4);
    RandomPatternGenerator rng(3);
    TransitionFaultSimulator sim(c, full_transition_universe(c));
    sim.apply(rng.vectors(c, 512));
    EXPECT_GT(sim.coverage(), 0.95);
    const auto curve = sim.coverage_curve();
    for (size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i], curve[i - 1]);
    EXPECT_DOUBLE_EQ(curve.back(), sim.coverage());
}

TEST(Transition, DetectionImpliesValidPair) {
    // Cross-check a sample of detections against first principles: the
    // line value at k-1 must be the initial value, and the faulty value at
    // k must differ at a PO under the stuck-at interpretation.
    const Circuit c = build_c432();
    RandomPatternGenerator rng(9);
    const auto vectors = rng.vectors(c, 128);
    TransitionFaultSimulator sim(c, full_transition_universe(c));
    sim.apply(vectors);
    int checked = 0;
    for (size_t fi = 0; fi < sim.faults().size() && checked < 25; ++fi) {
        const int at = sim.first_detected_at()[fi];
        if (at < 2) continue;  // skip undetected and lane-0-carried pairs
        ++checked;
        const auto& f = sim.faults()[fi];
        const bool init = !f.slow_to_rise;
        const auto prev =
            simulate(c, vectors[static_cast<size_t>(at - 2)]);
        ASSERT_EQ(prev[f.line], init) << transition_fault_name(c, f);
        const StuckAtFault sa{f.line, netlist::kNoNet, -1, init};
        std::vector<Vector> one{vectors[static_cast<size_t>(at - 1)]};
        const auto det = first_detections(c, std::span(&sa, 1), one);
        ASSERT_EQ(det[0], 1) << transition_fault_name(c, f);
    }
    EXPECT_GT(checked, 0);
}

TEST(GateBridge, WiredAndFlipsTheHighNet) {
    // y1 = NOT(a), y2 = NOT(b); bridge(y1, y2) wired-AND.
    // a=0,b=1: driven values 1,0 -> resolved 0 -> y1's observed value flips.
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto y1 = c.add_gate(netlist::GateType::Not, "y1", {a});
    const auto y2 = c.add_gate(netlist::GateType::Not, "y2", {b});
    c.mark_output(y1);
    c.mark_output(y2);
    const GateBridgeFault f{y1, y2, BridgeRule::WiredAnd};
    const auto out = simulate_bridge(c, {false, true}, f);
    EXPECT_FALSE(out[0]);  // good y1 = 1, bridged reads 0
    EXPECT_FALSE(out[1]);
    // Wired-OR: both read 1, so y2 flips instead.
    const GateBridgeFault g{y1, y2, BridgeRule::WiredOr};
    const auto out2 = simulate_bridge(c, {false, true}, g);
    EXPECT_TRUE(out2[0]);
    EXPECT_TRUE(out2[1]);
}

TEST(GateBridge, DominanceRules) {
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto y1 = c.add_gate(netlist::GateType::Buf, "y1", {a});
    const auto y2 = c.add_gate(netlist::GateType::Buf, "y2", {b});
    c.mark_output(y1);
    c.mark_output(y2);
    const GateBridgeFault f{y1, y2, BridgeRule::ADominates};
    const auto out = simulate_bridge(c, {true, false}, f);
    EXPECT_TRUE(out[0]);
    EXPECT_TRUE(out[1]);  // b's observed value follows a
}

TEST(GateBridge, FeedbackCycleFlaggedAsOscillating) {
    // y = NOT(x), x = BUF(a); bridge(x, y) with A-dominates(y side feeding
    // x's readers) forms a ring when the resolved value disagrees.
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto x = c.add_gate(netlist::GateType::Buf, "x", {a});
    const auto y = c.add_gate(netlist::GateType::Not, "y", {x});
    c.mark_output(y);
    // Bridge x with y: readers of x see resolve(x, y); y = NOT(that) -> ring.
    const GateBridgeFault f{x, y, BridgeRule::BDominates};
    bool osc = false;
    simulate_bridge(c, {true}, f, &osc);
    EXPECT_TRUE(osc);
}

TEST(GateBridge, SequenceSimulatorDropsAndCounts) {
    const Circuit c = build_c17();
    std::vector<GateBridgeFault> faults;
    for (NetId n = 0; n + 1 < c.gate_count(); ++n)
        faults.push_back({n, static_cast<NetId>(n + 1),
                          BridgeRule::WiredAnd});
    GateBridgeSimulator sim(c, faults);
    RandomPatternGenerator rng(5);
    sim.apply(rng.vectors(c, 64));
    EXPECT_GT(sim.coverage(), 0.3);
    for (int at : sim.first_detected_at())
        if (at > 0) EXPECT_LE(at, 64);
}

TEST(Timing, ArrivalAndSlackBasics) {
    // a -> NOT -> NAND(with b) -> PO.
    Circuit c("t");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto n = c.add_gate(netlist::GateType::Not, "n", {a});
    const auto y = c.add_gate(netlist::GateType::Nand, "y", {n, b});
    c.mark_output(y);
    const DelayModel m;
    const auto t = analyze_timing(c, m);
    EXPECT_DOUBLE_EQ(t.arrival[a], 0.0);
    EXPECT_DOUBLE_EQ(t.arrival[n], m.inv_delay);
    EXPECT_DOUBLE_EQ(t.arrival[y], m.inv_delay + m.nand_delay);
    EXPECT_DOUBLE_EQ(t.critical_delay, t.arrival[y]);
    // Default clock = critical delay: the critical path has zero slack.
    EXPECT_NEAR(t.slack[y], 0.0, 1e-12);
    EXPECT_NEAR(t.slack[n], 0.0, 1e-12);
    // The short b path has positive slack equal to the NOT delay.
    EXPECT_NEAR(t.slack[b], m.inv_delay, 1e-12);
    EXPECT_NEAR(t.min_slack(), 0.0, 1e-12);
}

TEST(Timing, SlackScalesWithClock) {
    const Circuit c = build_c432();
    const auto tight = analyze_timing(c, {}, 0.0);
    const auto loose = analyze_timing(c, {}, tight.critical_delay * 2);
    for (netlist::NetId n = 0; n < c.gate_count(); ++n)
        EXPECT_NEAR(loose.slack[n] - tight.slack[n], tight.critical_delay,
                    1e-9);
    EXPECT_GE(tight.min_slack(), -1e-9);
}

TEST(Timing, WiderGatesAndFanoutCostMore) {
    const DelayModel m;
    EXPECT_GT(m.gate_delay(netlist::GateType::Nand, 4, 1),
              m.gate_delay(netlist::GateType::Nand, 2, 1));
    EXPECT_GT(m.gate_delay(netlist::GateType::Nand, 2, 5),
              m.gate_delay(netlist::GateType::Nand, 2, 1));
}

TEST(Bist, TabulatedLfsrPolynomialsAreMaximal) {
    for (int width : {3, 4, 5, 7, 8, 15, 16}) {
        const Lfsr lfsr(width);
        EXPECT_EQ(lfsr.period(), (1ULL << width) - 1) << "width " << width;
    }
}

TEST(Bist, LfsrDeterministicAndNonZero) {
    Lfsr a(16, 0, 0xBEEF);
    Lfsr b(16, 0, 0xBEEF);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.step(), b.step());
        EXPECT_NE(a.state(), 0u);
    }
    EXPECT_THROW(Lfsr(0), std::invalid_argument);
    EXPECT_THROW(Lfsr(65), std::invalid_argument);
}

TEST(Bist, MisrSeparatesGoodAndFaultyStreams) {
    const Circuit c = build_c17();
    Lfsr lfsr(16, 0, 7);
    // Golden signature of 200 LFSR patterns.
    Misr golden(16);
    std::vector<Vector> vectors;
    for (int i = 0; i < 200; ++i) vectors.push_back(lfsr.next_vector(c));
    for (const auto& v : vectors)
        golden.absorb(pack_response(c, simulate(c, v)));

    // A faulty machine (stuck-at on net 16) must produce a different
    // signature for this pattern set.
    const StuckAtFault f{c.find("16"), netlist::kNoNet, -1, true};
    Misr faulty(16);
    for (const auto& v : vectors) {
        // Fault simulation of a single vector.
        auto values = simulate(c, v);
        std::vector<Vector> one{v};
        const auto det = first_detections(c, std::span(&f, 1), one);
        if (det[0] == 1) {
            // Flip the output bits the fault changes: recompute faulty POs.
            // (Direct faulty simulation via the stem override.)
            std::vector<std::uint64_t> words(c.gate_count());
            const Vector* vv = &v;
            const auto block = pack_vectors(c, std::span(vv, 1));
            auto good = simulate_block(c, block);
            auto fw = good;
            fw[f.net] = ~0ULL;
            for (NetId g = f.net + 1; g < c.gate_count(); ++g) {
                const auto& gate = c.gate(g);
                if (gate.type == netlist::GateType::Input) continue;
                std::vector<std::uint64_t> ops;
                for (NetId x : gate.fanin) ops.push_back(fw[x]);
                fw[g] = netlist::eval_gate(gate.type, ops);
            }
            std::vector<bool> fvals(c.gate_count());
            for (NetId g = 0; g < c.gate_count(); ++g) fvals[g] = fw[g] & 1;
            faulty.absorb(pack_response(c, fvals));
        } else {
            faulty.absorb(pack_response(c, values));
        }
    }
    EXPECT_NE(golden.signature(), faulty.signature());
}

TEST(Bist, LfsrPatternsApproachRandomCoverage) {
    // The self-testing environment of ref. [19]: LFSR patterns drive the
    // coverage law of eq. (7) just like true random patterns.
    const Circuit c = build_c432();
    const auto faults = collapse_faults(c, full_fault_universe(c));

    Lfsr lfsr(32, 0, 0xACE1);
    std::vector<Vector> lfsr_vectors;
    for (int i = 0; i < 512; ++i) lfsr_vectors.push_back(lfsr.next_vector(c));
    LevelizedFaultSimulator lsim(c, faults);
    lsim.apply(lfsr_vectors);

    RandomPatternGenerator rng(4);
    LevelizedFaultSimulator rsim(c, faults);
    rsim.apply(rng.vectors(c, 512));

    EXPECT_NEAR(lsim.coverage(), rsim.coverage(), 0.08);
    EXPECT_GT(lsim.coverage(), 0.8);
}

TEST(Patterns, DeterministicAndFullWidth) {
    const Circuit c = build_c432();
    RandomPatternGenerator a(123);
    RandomPatternGenerator b(123);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.next_vector(c), b.next_vector(c));
    // Bits are not all equal across a batch.
    RandomPatternGenerator r(9);
    const auto vs = r.vectors(c, 32);
    std::set<Vector> unique(vs.begin(), vs.end());
    EXPECT_EQ(unique.size(), vs.size());
}

// --- Differential test: naive reference simulator vs levelized ----------
//
// An obviously-correct scalar simulator: for each fault, re-simulate the
// whole circuit one vector at a time with the fault's line value forced,
// and compare primary outputs against the good machine.  No pattern
// packing, no fault dropping, no cone pruning — nothing shared with the
// levelized implementation except the circuit IR.

std::vector<bool> simulate_faulty_naive(const Circuit& c, const Vector& v,
                                        const StuckAtFault& f) {
    std::vector<std::uint64_t> value(c.gate_count(), 0);
    std::size_t next_input = 0;
    for (NetId id = 0; id < c.gate_count(); ++id) {
        const netlist::Gate& g = c.gate(id);
        if (g.type == GateType::Input) {
            value[id] = v[next_input++] ? 1 : 0;
        } else {
            std::vector<std::uint64_t> fanin;
            for (std::size_t pin = 0; pin < g.fanin.size(); ++pin) {
                std::uint64_t bit = value[g.fanin[pin]] & 1;
                if (!f.is_stem() && f.reader == id &&
                    f.pin == static_cast<int>(pin))
                    bit = f.stuck_value ? 1 : 0;
                fanin.push_back(bit);
            }
            value[id] = netlist::eval_gate(g.type, fanin) & 1;
        }
        if (f.is_stem() && f.net == id) value[id] = f.stuck_value ? 1 : 0;
    }
    std::vector<bool> outs;
    for (const NetId po : c.outputs()) outs.push_back(value[po] & 1);
    return outs;
}

std::vector<int> run_reference_simulation(
    const Circuit& c, std::span<const StuckAtFault> faults,
    std::span<const Vector> vectors) {
    std::vector<std::vector<bool>> good;
    for (const Vector& v : vectors) {
        const std::vector<bool> nets = simulate(c, v);
        std::vector<bool> outs;
        for (const NetId po : c.outputs()) outs.push_back(nets[po]);
        good.push_back(std::move(outs));
    }
    std::vector<int> first(faults.size(), -1);
    for (std::size_t fi = 0; fi < faults.size(); ++fi)
        for (std::size_t k = 0; k < vectors.size(); ++k)
            if (simulate_faulty_naive(c, vectors[k], faults[fi]) != good[k]) {
                first[fi] = static_cast<int>(k) + 1;
                break;
            }
    return first;
}

void expect_sim_matches_reference(const Circuit& c,
                                  std::span<const Vector> vectors,
                                  const char* what) {
    const auto faults = full_fault_universe(c);
    const auto reference = run_reference_simulation(c, faults, vectors);
    const auto levelized = first_detections(c, faults, vectors);
    ASSERT_EQ(reference.size(), levelized.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
        EXPECT_EQ(levelized[i], reference[i])
            << what << ": fault " << fault_name(c, faults[i]);
}

TEST(FaultSimDifferential, C17MatchesNaiveReference) {
    const Circuit c = build_c17();
    RandomPatternGenerator rng(42);
    expect_sim_matches_reference(c, rng.vectors(c, 12), "c17");
}

TEST(FaultSimDifferential, RandomCircuitsMatchNaiveReference) {
    // 100 seeded random c17-scale circuits, full (uncollapsed) fault
    // universe, ~12 vectors each: every first-detection index must be
    // bit-identical between the two simulators.
    for (std::uint64_t trial = 0; trial < 100; ++trial) {
        const Circuit c =
            netlist::build_random_circuit(5, 8, /*seed=*/1000 + trial);
        RandomPatternGenerator rng(trial);
        expect_sim_matches_reference(c, rng.vectors(c, 12),
                                       c.name().c_str());
    }
}

TEST(FaultSimDifferential, BlockBoundaryVectorCounts) {
    // Vector counts straddling the 64-wide pattern block boundary, where
    // lane masking bugs would live.
    const Circuit c = netlist::build_random_circuit(5, 8, 7);
    for (int n : {1, 63, 64, 65, 70}) {
        RandomPatternGenerator rng(static_cast<std::uint64_t>(n));
        expect_sim_matches_reference(c, rng.vectors(c, n), "boundary");
    }
}

}  // namespace
}  // namespace dlp::gatesim
