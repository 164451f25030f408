// Tests for the switch-level simulator: fault-free equivalence with the
// gate-level simulator, bridge arbitration, stuck-open charge retention,
// floating gates, and the incremental fault simulator - including its
// differential against brute-force step_faulty re-simulation on the
// extracted fault lists of the flow, and its metamorphic invariances - plus
// the compiled CCC tables and the levelized fault-free trace against the
// solver and step(), and the premise that lets it skip floating gates with
// no definite level.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <utility>

#include "cell/library.h"
#include "flow/experiment.h"
#include "gatesim/logic_sim.h"
#include "gatesim/patterns.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"
#include "obs/telemetry.h"
#include "switchsim/switch_fault_sim.h"

namespace dlp::switchsim {
namespace {

using netlist::Circuit;

std::vector<bool> unpack(const gatesim::Vector& v) {
    return std::vector<bool>(v.begin(), v.end());
}

void step_vec(const SwitchSim& sim, SwitchSim::State& st,
              const gatesim::Vector& v) {
    std::vector<char> bytes(v.size());
    static std::vector<bool> dummy;
    (void)dummy;
    std::unique_ptr<bool[]> b(new bool[v.size()]);
    for (size_t i = 0; i < v.size(); ++i) b[i] = v[i];
    sim.step(st, std::span<const bool>(b.get(), v.size()));
    (void)bytes;
}

void step_vec_faulty(const SwitchSim& sim, SwitchSim::State& st,
                     const gatesim::Vector& v, const SwitchFault& f) {
    std::unique_ptr<bool[]> b(new bool[v.size()]);
    for (size_t i = 0; i < v.size(); ++i) b[i] = v[i];
    sim.step_faulty(st, std::span<const bool>(b.get(), v.size()), f);
}

/// Brute-force reference: every fault re-simulated from scratch with
/// SwitchSim::step_faulty over the whole sequence, against one fault-free
/// trace.  Returns each fault's first voltage detection and first IDDQ
/// flag (1-based vector index, -1 = never), with the simulator's
/// conventions: a gross fault fails vector 1, a floating pad never
/// detects, a bridge draws IDDQ when the good machine drives its ends
/// apart.
struct Reference {
    std::vector<int> detected_at;
    std::vector<int> iddq_at;
};

Reference brute_force(const SwitchSim& sim,
                      std::span<const WeightedFault> faults,
                      std::span<const Vector> vectors) {
    std::vector<SwitchSim::State> good;
    auto st = sim.initial_state();
    for (const Vector& v : vectors) {
        step_vec(sim, st, v);
        good.push_back(st);
    }

    Reference ref;
    for (const WeightedFault& wf : faults) {
        const SwitchFault& f = wf.fault;
        int det = -1;
        int iddq = -1;
        if (f.kind == SwitchFault::Kind::Gross) {
            det = iddq = 1;
        } else {
            if (f.kind == SwitchFault::Kind::Bridge)
                for (size_t k = 0; k < good.size() && iddq < 0; ++k) {
                    bool saw0 = false;
                    bool saw1 = false;
                    for (NodeId n : {f.a, f.b, f.c}) {
                        if (n < 0) continue;
                        saw0 |= good[k][static_cast<size_t>(n)] == SV::Zero;
                        saw1 |= good[k][static_cast<size_t>(n)] == SV::One;
                    }
                    if (saw0 && saw1) iddq = static_cast<int>(k) + 1;
                }
            auto faulty = sim.initial_state();
            for (size_t k = 0; k < vectors.size() && det < 0; ++k) {
                step_vec_faulty(sim, faulty, vectors[k], f);
                const auto go = sim.outputs(good[k]);
                const auto fo = sim.outputs(faulty);
                for (size_t o = 0; o < go.size(); ++o)
                    if (static_cast<int>(o) != f.po_float && go[o] != SV::X &&
                        fo[o] != SV::X && go[o] != fo[o]) {
                        det = static_cast<int>(k) + 1;
                        break;
                    }
            }
        }
        ref.detected_at.push_back(det);
        ref.iddq_at.push_back(iddq);
    }
    return ref;
}

/// Checks the incremental simulator against brute_force; returns the
/// reference's detection indices.
std::vector<int> expect_matches_reference(
    const SwitchSim& sim, const std::vector<WeightedFault>& faults,
    const std::vector<Vector>& vectors) {
    SwitchFaultSimulator inc(sim, faults);
    inc.apply(vectors);
    Reference ref = brute_force(sim, faults, vectors);
    for (size_t fi = 0; fi < faults.size(); ++fi) {
        EXPECT_EQ(inc.first_detected_at()[fi], ref.detected_at[fi])
            << faults[fi].name << ": incremental vs brute force";
        EXPECT_EQ(inc.iddq_detected_at()[fi], ref.iddq_at[fi])
            << faults[fi].name << ": IDDQ";
    }
    return std::move(ref.detected_at);
}

std::vector<Vector> random_vectors(const Circuit& c, int n,
                                   std::uint64_t seed) {
    return gatesim::RandomPatternGenerator(seed).vectors(c, n);
}

class GoodSimEquivalence
    : public ::testing::TestWithParam<std::function<Circuit()>> {};

TEST_P(GoodSimEquivalence, MatchesGateLevelSimulation) {
    const Circuit mapped = netlist::techmap(GetParam()());
    const SwitchNetlist net = build_switch_netlist(mapped);
    const SwitchSim sim(net);
    auto state = sim.initial_state();

    gatesim::RandomPatternGenerator rng(31);
    for (int i = 0; i < 40; ++i) {
        const auto v = rng.next_vector(mapped);
        step_vec(sim, state, v);
        const auto sw = sim.outputs(state);
        const auto gate = gatesim::simulate(mapped, v);
        for (size_t o = 0; o < mapped.outputs().size(); ++o) {
            ASSERT_NE(sw[o], SV::X)
                << "fault-free PO must settle, vector " << i;
            ASSERT_EQ(sw[o] == SV::One, gate[mapped.outputs()[o]])
                << "PO " << o << " vector " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, GoodSimEquivalence,
    ::testing::Values([] { return netlist::build_c17(); },
                      [] { return netlist::build_c432(); },
                      [] { return netlist::build_ripple_adder(4); },
                      [] { return netlist::build_parity_tree(5); },
                      [] { return netlist::build_decoder(3); },
                      [] {
                          return netlist::build_random_circuit(10, 50, 77);
                      }));

class InverterFixture : public ::testing::Test {
protected:
    InverterFixture() {
        // y1 = NOT(a), y2 = NOT(b): two independent inverters.
        circuit.emplace("two_inv");
        const auto a = circuit->add_input("a");
        const auto b = circuit->add_input("b");
        const auto y1 = circuit->add_gate(netlist::GateType::Not, "y1", {a});
        const auto y2 = circuit->add_gate(netlist::GateType::Not, "y2", {b});
        circuit->mark_output(y1);
        circuit->mark_output(y2);
        net = build_switch_netlist(*circuit);
        sim.emplace(net);
    }
    std::optional<Circuit> circuit;
    SwitchNetlist net;
    std::optional<SwitchSim> sim;
};

TEST_F(InverterFixture, BridgeResolvesWiredAnd) {
    // Bridge the two inverter outputs.  With a=0,b=1: y1 pulls up (PMOS,
    // g=1), y2 pulls down (NMOS, g=2): NMOS wins -> both read 0.
    SwitchFault bridge;
    bridge.kind = SwitchFault::Kind::Bridge;
    bridge.a = net.node_of_net(circuit->find("y1"));
    bridge.b = net.node_of_net(circuit->find("y2"));

    auto st = sim->initial_state();
    step_vec_faulty(*sim, st, {false, true}, bridge);
    const auto out = sim->outputs(st);
    EXPECT_EQ(out[0], SV::Zero) << "wired-AND: NMOS overpowers PMOS";
    EXPECT_EQ(out[1], SV::Zero);

    // Fault-free for contrast: y1 = 1.
    auto clean = sim->initial_state();
    step_vec(*sim, clean, {false, true});
    EXPECT_EQ(sim->outputs(clean)[0], SV::One);
}

TEST_F(InverterFixture, BridgeAgreeingValuesHarmless) {
    SwitchFault bridge;
    bridge.kind = SwitchFault::Kind::Bridge;
    bridge.a = net.node_of_net(circuit->find("y1"));
    bridge.b = net.node_of_net(circuit->find("y2"));
    auto st = sim->initial_state();
    step_vec_faulty(*sim, st, {false, false}, bridge);
    const auto out = sim->outputs(st);
    EXPECT_EQ(out[0], SV::One);
    EXPECT_EQ(out[1], SV::One);
}

TEST_F(InverterFixture, BridgeToSupplyActsStuck) {
    SwitchFault bridge;
    bridge.kind = SwitchFault::Kind::Bridge;
    bridge.a = net.node_of_net(circuit->find("y1"));
    bridge.b = SwitchNetlist::kGnd;
    auto st = sim->initial_state();
    step_vec_faulty(*sim, st, {false, false}, bridge);
    // y1 wants 1 through its PMOS but the near-short to GND wins.
    EXPECT_EQ(sim->outputs(st)[0], SV::Zero);
}

TEST_F(InverterFixture, InputBridgeOnPis) {
    SwitchFault bridge;
    bridge.kind = SwitchFault::Kind::Bridge;
    bridge.a = net.node_of_net(circuit->find("a"));
    bridge.b = net.node_of_net(circuit->find("b"));
    auto st = sim->initial_state();
    // Conflicting tester drive resolves wired-AND: both inputs read 0, so
    // both inverters output 1 (good y2 would be 0 -> detectable).
    step_vec_faulty(*sim, st, {false, true}, bridge);
    EXPECT_EQ(sim->outputs(st)[0], SV::One);
    EXPECT_EQ(sim->outputs(st)[1], SV::One);
    // Agreeing drive: normal behaviour.
    step_vec_faulty(*sim, st, {true, true}, bridge);
    EXPECT_EQ(sim->outputs(st)[0], SV::Zero);
}

TEST(StuckOpen, NeedsTwoPatternSequence) {
    // Single inverter with the NMOS removed (stuck-open): y keeps charge
    // when a=1, so detection requires a 0->1 input sequence that first
    // charges y high... actually a=0 charges y=1 via PMOS; then a=1 leaves
    // y floating at 1 (faulty) while good y=0 -> detected only then.
    Circuit c("inv");
    const auto a = c.add_input("a");
    const auto y = c.add_gate(netlist::GateType::Not, "y", {a});
    c.mark_output(y);
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);

    // Find the NMOS (global index) of the single instance.
    int nmos = -1;
    for (size_t t = 0; t < net.transistors.size(); ++t)
        if (!net.transistors[t].is_pmos) nmos = static_cast<int>(t);
    ASSERT_GE(nmos, 0);
    SwitchFault open;
    open.kind = SwitchFault::Kind::TransistorOpen;
    open.transistors = {nmos};

    auto st = sim.initial_state();
    // Vector a=1 first: good y=0; faulty y floats with unknown charge (X):
    // no definite detection.
    step_vec_faulty(sim, st, {true}, open);
    EXPECT_EQ(sim.outputs(st)[0], SV::X);
    // Now a=0 charges y=1 in both circuits...
    step_vec_faulty(sim, st, {false}, open);
    EXPECT_EQ(sim.outputs(st)[0], SV::One);
    // ...and a=1 again: faulty y retains 1 while good y=0 -> detectable.
    step_vec_faulty(sim, st, {true}, open);
    EXPECT_EQ(sim.outputs(st)[0], SV::One);
}

TEST(GateFloatFault, DefaultLeakageModelReadsGateLow) {
    // Both inverter gates floating: with the default leakage-low model the
    // PMOS conducts and the NMOS does not, so y sticks at 1 - detectable
    // whenever the good output is 0.
    Circuit c("inv");
    const auto a = c.add_input("a");
    const auto y = c.add_gate(netlist::GateType::Not, "y", {a});
    c.mark_output(y);
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    SwitchFault fl;
    fl.kind = SwitchFault::Kind::GateFloat;
    fl.transistors = {0, 1};
    auto st = sim.initial_state();
    step_vec_faulty(sim, st, {true}, fl);
    EXPECT_EQ(sim.outputs(st)[0], SV::One);  // good would be 0
}

TEST(GateFloatFault, UnknownModelProducesXNotDetection) {
    Circuit c("inv");
    const auto a = c.add_input("a");
    const auto y = c.add_gate(netlist::GateType::Not, "y", {a});
    c.mark_output(y);
    const SwitchNetlist net = build_switch_netlist(c);
    SimParams params;
    params.float_gate = FloatGateModel::Unknown;
    const SwitchSim sim(net, params);
    SwitchFault fl;
    fl.kind = SwitchFault::Kind::GateFloat;
    fl.transistors = {0, 1};
    auto st = sim.initial_state();
    step_vec_faulty(sim, st, {true}, fl);
    EXPECT_EQ(sim.outputs(st)[0], SV::X);
}

TEST(ThreeNodeBridge, TiesAllThreeNets) {
    // Three inverters; bridge all outputs.  With inputs 0,1,1 the single
    // pull-up (PMOS g=1) fights two pull-downs (NMOS g=3 each): the shorted
    // cluster reads 0 and the first inverter's output flips.
    Circuit c("three_inv");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto d = c.add_input("d");
    const auto y1 = c.add_gate(netlist::GateType::Not, "y1", {a});
    const auto y2 = c.add_gate(netlist::GateType::Not, "y2", {b});
    const auto y3 = c.add_gate(netlist::GateType::Not, "y3", {d});
    c.mark_output(y1);
    c.mark_output(y2);
    c.mark_output(y3);
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    SwitchFault bridge;
    bridge.kind = SwitchFault::Kind::Bridge;
    bridge.a = net.node_of_net(y1);
    bridge.b = net.node_of_net(y2);
    bridge.c = net.node_of_net(y3);

    auto st = sim.initial_state();
    step_vec_faulty(sim, st, {false, true, true}, bridge);
    const auto out = sim.outputs(st);
    EXPECT_EQ(out[0], SV::Zero) << "two pull-downs overpower one pull-up";
    EXPECT_EQ(out[1], SV::Zero);
    EXPECT_EQ(out[2], SV::Zero);

    // All agreeing: harmless.
    step_vec_faulty(sim, st, {true, true, true}, bridge);
    for (const SV v : sim.outputs(st)) EXPECT_EQ(v, SV::Zero);
}

TEST(ThreeNodeBridge, IncrementalMatchesBruteForce) {
    const Circuit c = netlist::techmap(netlist::build_ripple_adder(3));
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    std::vector<WeightedFault> faults;
    for (netlist::NetId n = 0; n + 2 < c.gate_count(); n += 4) {
        WeightedFault f;
        f.fault.kind = SwitchFault::Kind::Bridge;
        f.fault.a = net.node_of_net(n);
        f.fault.b = net.node_of_net(n + 1);
        f.fault.c = net.node_of_net(n + 2);
        f.name = "bridge3_" + std::to_string(n);
        faults.push_back(f);
    }
    expect_matches_reference(sim, faults, random_vectors(c, 40, 23));
}

TEST(Iddq, FlagsConductingBridgesOnly) {
    // Two inverters, outputs bridged.  IDDQ flags the fault on the first
    // vector that drives the outputs apart, even though no PO needs to
    // flip; an open never raises IDDQ.
    Circuit c("two_inv");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto y1 = c.add_gate(netlist::GateType::Not, "y1", {a});
    const auto y2 = c.add_gate(netlist::GateType::Not, "y2", {b});
    c.mark_output(y1);
    c.mark_output(y2);
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);

    WeightedFault bridge;
    bridge.fault.kind = SwitchFault::Kind::Bridge;
    bridge.fault.a = net.node_of_net(y1);
    bridge.fault.b = net.node_of_net(y2);
    WeightedFault open;
    open.fault.kind = SwitchFault::Kind::TransistorOpen;
    open.fault.transistors = {0};

    SwitchFaultSimulator fs(sim, {bridge, open});
    // Vector 1: equal inputs (no current); vector 2: opposite.
    std::vector<Vector> vv{{false, false}, {false, true}};
    fs.apply(vv);
    EXPECT_EQ(fs.iddq_detected_at()[0], 2);
    EXPECT_EQ(fs.iddq_detected_at()[1], -1) << "opens draw no current";
}

TEST(SwitchNetlist, NodeNumberingAndNames) {
    const Circuit c = netlist::techmap(netlist::build_c17());
    const SwitchNetlist net = build_switch_netlist(c);
    EXPECT_EQ(net.node_of_net(0), 2);
    EXPECT_EQ(net.input_nodes.size(), 5u);
    EXPECT_EQ(net.output_nodes.size(), 2u);
    EXPECT_EQ(net.node_name(SwitchNetlist::kGnd), "GND");
    EXPECT_EQ(net.node_name(SwitchNetlist::kVdd), "VDD");
    // c17 is six NAND2s: 24 transistors.
    EXPECT_EQ(net.transistors.size(), 24u);
    // NetRef resolution round-trips.
    EXPECT_EQ(net.node_of(cell::NetRef::power(false)), SwitchNetlist::kGnd);
    EXPECT_EQ(net.node_of(cell::NetRef::circuit(3)), 5);
}

TEST(SwitchFaultSimulator, IncrementalMatchesFullResimulation) {
    // The divergence-tracking fault simulator must agree with brute-force
    // step_faulty over the whole sequence, fault by fault.
    const Circuit c = netlist::techmap(netlist::build_ripple_adder(3));
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);

    // A mixed fault list: bridges between adjacent circuit nets, a few
    // transistor opens, a few gate floats.
    std::vector<WeightedFault> faults;
    for (netlist::NetId n = 0; n + 1 < c.gate_count(); n += 5) {
        WeightedFault f;
        f.fault.kind = SwitchFault::Kind::Bridge;
        f.fault.a = net.node_of_net(n);
        f.fault.b = net.node_of_net(n + 1);
        f.name = "bridge" + std::to_string(n);
        faults.push_back(f);
    }
    for (int t = 0; t < static_cast<int>(net.transistors.size()); t += 7) {
        WeightedFault f;
        f.fault.kind = SwitchFault::Kind::TransistorOpen;
        f.fault.transistors = {t};
        f.name = "open" + std::to_string(t);
        faults.push_back(f);
        WeightedFault g;
        g.fault.kind = SwitchFault::Kind::GateFloat;
        g.fault.transistors = {t};
        g.name = "float" + std::to_string(t);
        faults.push_back(g);
    }

    expect_matches_reference(sim, faults, random_vectors(c, 48, 13));
}

// ---- oracle differential on extracted fault lists ------------------------

/// The extracted, weighted switch-level fault list of the flow, with the
/// prepared design that owns its switch netlist.
struct FlowFaults {
    explicit FlowFaults(netlist::Circuit circuit)
        : runner(std::move(circuit)),
          design(runner.prepare()),
          sim(design.swnet, flow::ExperimentOptions{}.sim),
          faults(flow::to_switch_faults(design.extraction, design.chip,
                                        design.swnet)) {}
    flow::ExperimentRunner runner;
    const flow::ExperimentRunner::PreparedDesign& design;
    SwitchSim sim;
    std::vector<WeightedFault> faults;
};

/// True when the bridge's ends lie in distinct channel-connected
/// components and one reaches another through gate dependencies: the
/// merged group then feeds itself.
bool is_feedback_bridge(const SwitchSim& sim, const SwitchFault& f) {
    if (f.kind != SwitchFault::Kind::Bridge) return false;
    std::vector<std::int32_t> group;
    for (NodeId n : {f.a, f.b, f.c}) {
        if (n < 0) continue;
        const std::int32_t c = sim.component_of()[static_cast<size_t>(n)];
        if (c >= 0 && std::find(group.begin(), group.end(), c) == group.end())
            group.push_back(c);
    }
    if (group.size() < 2) return false;
    for (std::int32_t from : group) {
        std::vector<char> seen(static_cast<size_t>(sim.component_count()), 0);
        std::vector<std::int32_t> stack{from};
        while (!stack.empty()) {
            const std::int32_t c = stack.back();
            stack.pop_back();
            for (NodeId v : sim.component_nodes(c))
                for (std::int32_t r : sim.gate_dependents(v)) {
                    if (seen[static_cast<size_t>(r)]) continue;
                    if (r != from && std::find(group.begin(), group.end(),
                                               r) != group.end())
                        return true;
                    seen[static_cast<size_t>(r)] = 1;
                    stack.push_back(r);
                }
        }
    }
    return false;
}

/// About 200 extracted c432 faults, seeded: half feedback bridges, half
/// everything else.
std::vector<WeightedFault> c432_sample(const FlowFaults& ff) {
    std::vector<size_t> loops;
    std::vector<size_t> others;
    for (size_t i = 0; i < ff.faults.size(); ++i)
        (is_feedback_bridge(ff.sim, ff.faults[i].fault) ? loops : others)
            .push_back(i);
    std::mt19937 rng(432);
    std::shuffle(loops.begin(), loops.end(), rng);
    std::shuffle(others.begin(), others.end(), rng);
    std::vector<size_t> pick(loops.begin(),
                             loops.begin() + std::min<size_t>(100, loops.size()));
    pick.insert(pick.end(), others.begin(),
                others.begin() + std::min<size_t>(100, others.size()));
    std::sort(pick.begin(), pick.end());
    std::vector<WeightedFault> out;
    for (size_t i : pick) out.push_back(ff.faults[i]);
    return out;
}

class ExtractedFaultList
    : public ::testing::TestWithParam<std::function<Circuit()>> {};

TEST_P(ExtractedFaultList, IncrementalMatchesFullResimulation) {
    const FlowFaults ff(GetParam()());
    ASSERT_FALSE(ff.faults.empty());
    expect_matches_reference(ff.sim, ff.faults,
                             random_vectors(ff.design.mapped, 48, 19));
}

INSTANTIATE_TEST_SUITE_P(
    Flow, ExtractedFaultList,
    ::testing::Values([] { return netlist::build_c17(); },
                      [] { return netlist::build_ripple_adder(3); },
                      [] { return netlist::build_ripple_adder(4); },
                      [] { return netlist::build_parity_tree(8); },
                      [] {
                          return netlist::build_random_circuit(8, 24, 77);
                      }));

TEST(ExtractedFaultListC432, SeededSampleWithFeedbackBridges) {
    const FlowFaults ff(netlist::build_c432());
    const auto sample = c432_sample(ff);
    const auto loops = std::count_if(
        sample.begin(), sample.end(), [&](const WeightedFault& f) {
            return is_feedback_bridge(ff.sim, f.fault);
        });
    ASSERT_GE(loops, 50) << "the sample must exercise feedback bridges";
    ASSERT_GE(sample.size(), 190u);
    expect_matches_reference(ff.sim, sample,
                             random_vectors(ff.design.mapped, 32, 7));
}

/// g1 = NAND(a, b) feeds g2 = NOT(g1), which feeds g3 = NAND(g2, d).
/// Shorting g1 to g3 closes a loop g1/g3 -> g2 -> g1/g3.  The sequence
/// revisits every input combination.
class FeedbackBridge : public ::testing::Test {
protected:
    FeedbackBridge() {
        const auto a = circuit.add_input("a");
        const auto b = circuit.add_input("b");
        const auto d = circuit.add_input("d");
        const auto g1 =
            circuit.add_gate(netlist::GateType::Nand, "g1", {a, b});
        const auto g2 = circuit.add_gate(netlist::GateType::Not, "g2", {g1});
        const auto g3 =
            circuit.add_gate(netlist::GateType::Nand, "g3", {g2, d});
        circuit.mark_output(g2);
        circuit.mark_output(g3);
        net = build_switch_netlist(circuit);
        bridge.fault.kind = SwitchFault::Kind::Bridge;
        bridge.fault.a = net.node_of_net(g1);
        bridge.fault.b = net.node_of_net(g3);
        bridge.name = "bridge_g1_g3";
        std::mt19937 rng(5);
        for (int k = 0; k < 64; ++k) {
            const unsigned x = rng() % 8u;
            vectors.push_back({(x & 1u) != 0, (x & 2u) != 0, (x & 4u) != 0});
        }
    }
    Circuit circuit{"loop"};
    SwitchNetlist net;
    WeightedFault bridge;
    std::vector<Vector> vectors;
};

TEST_F(FeedbackBridge, LoopRestartWithChargeRetention) {
    // Stuck-opens on every transistor of the loop's cells ride in the same
    // fault list, so loop restarts and retained charge interleave in one
    // worker's scratch.
    const SwitchSim sim(net);
    ASSERT_TRUE(is_feedback_bridge(sim, bridge.fault));
    std::vector<WeightedFault> faults;
    for (int t = 0; t < static_cast<int>(net.transistors.size()); ++t) {
        faults.push_back(bridge);
        WeightedFault open;
        open.fault.kind = SwitchFault::Kind::TransistorOpen;
        open.fault.transistors = {t};
        open.name = "open" + std::to_string(t);
        faults.push_back(open);
    }
    expect_matches_reference(sim, faults, vectors);

    // The loop is live: somewhere in the sequence the bridged machine's
    // outputs differ from the fault-free ones.
    auto good = sim.initial_state();
    auto faulty = sim.initial_state();
    bool diverged = false;
    for (const Vector& v : vectors) {
        step_vec(sim, good, v);
        step_vec_faulty(sim, faulty, v, bridge.fault);
        diverged |= sim.outputs(good) != sim.outputs(faulty);
    }
    EXPECT_TRUE(diverged);
}

TEST_F(FeedbackBridge, CapHitsAreReportedNotSilent) {
    // One solve per component per fault-vector cannot settle the loop from
    // X; every skipped re-solve is counted.  The default cap never binds.
    SimParams tight;
    tight.max_sweeps = 1;
    const SwitchSim capped(net, tight);
    SwitchFaultSimulator fs(capped, {bridge});
    fs.apply(vectors);
    EXPECT_GT(fs.cap_hits(), 0);

    const SwitchSim sim(net);
    SwitchFaultSimulator settled(sim, {bridge});
    settled.apply(vectors);
    EXPECT_EQ(settled.cap_hits(), 0);
}

/// A hand-built cross-coupled NAND latch: its two components read each
/// other, so the fault-free CCC graph itself has a cycle.
enum : NodeId { kS = 2, kR = 3, kQ = 4, kQb = 5, kN1 = 6, kN2 = 7 };

SwitchNetlist latch_netlist() {
    SwitchNetlist net;
    net.node_count = 8;
    net.input_nodes = {kS, kR};
    net.output_nodes = {kQ, kQb};
    const auto nand = [&](NodeId out, NodeId in, NodeId fb, NodeId mid) {
        net.transistors.push_back({true, in, SwitchNetlist::kVdd, out});
        net.transistors.push_back({true, fb, SwitchNetlist::kVdd, out});
        net.transistors.push_back({false, in, out, mid});
        net.transistors.push_back({false, fb, mid, SwitchNetlist::kGnd});
    };
    nand(kQ, kS, kQb, kN1);
    nand(kQb, kR, kQ, kN2);
    return net;
}

std::vector<Vector> latch_vectors() {
    std::mt19937 rng(11);
    std::vector<Vector> vv;
    for (int k = 0; k < 48; ++k) {
        const unsigned x = rng() % 4u;
        vv.push_back({(x & 1u) != 0, (x & 2u) != 0});
    }
    return vv;
}

TEST(FaultFreeCycle, MatchesReference) {
    // The reference restarts every vector from X; the incremental simulator
    // must agree.
    const SwitchNetlist net = latch_netlist();
    const SwitchSim sim(net);

    std::vector<WeightedFault> faults;
    for (int t = 0; t < static_cast<int>(net.transistors.size()); ++t) {
        WeightedFault open;
        open.fault.kind = SwitchFault::Kind::TransistorOpen;
        open.fault.transistors = {t};
        open.name = "open" + std::to_string(t);
        faults.push_back(open);
    }
    for (const auto& [x, y] : std::vector<std::pair<NodeId, NodeId>>{
             {kQ, kQb}, {kS, kQ}, {kN1, kQb}, {kS, kR}}) {
        WeightedFault br;
        br.fault.kind = SwitchFault::Kind::Bridge;
        br.fault.a = x;
        br.fault.b = y;
        br.name = "bridge" + std::to_string(x) + "_" + std::to_string(y);
        faults.push_back(br);
    }
    expect_matches_reference(sim, faults, latch_vectors());
}

// ---- compiled tables and the levelized fault-free trace --------------------

/// Every compiled table of `sim` equals a direct fault-free solve_component
/// on every gate assignment.  The first component of each table is swept
/// over every mixed previous-value combination of its nodes (3^nodes), which
/// pins the per-node independence the tables rely on; later components of
/// the same table, over the uniform ones.  Returns the tabulated count.
int expect_tables_exact(const SwitchSim& sim) {
    std::vector<char> swept(sim.table_count(), 0);
    auto state = sim.initial_state();
    auto prev = sim.initial_state();
    int tabulated = 0;
    for (std::int32_t c = 0; c < sim.component_count(); ++c) {
        const std::int32_t table = sim.table_of(c);
        if (table < 0) continue;
        ++tabulated;
        const auto gates = sim.table_gates(c);
        const auto nodes = sim.component_nodes(c);
        const bool mixed = !std::exchange(swept[static_cast<size_t>(table)], 1);
        int rows = 1;
        for (size_t i = 0; i < gates.size(); ++i) rows *= 3;
        int prevs = 3;
        for (size_t i = 1; mixed && i < nodes.size(); ++i) prevs *= 3;
        for (int r = 0; r < rows; ++r) {
            int d = r;
            for (NodeId g : gates) {
                state[static_cast<size_t>(g)] = static_cast<SV>(d % 3);
                d /= 3;
            }
            for (int p = 0; p < prevs; ++p) {
                int e = p;
                for (NodeId v : nodes) {
                    prev[static_cast<size_t>(v)] =
                        static_cast<SV>(mixed ? e % 3 : p);
                    e /= 3;
                }
                auto solved = state;
                const std::int32_t one = c;
                sim.solve_component(solved, prev, std::span(&one, 1), {});
                auto looked = state;
                sim.lookup_component(looked, prev, c);
                for (NodeId v : nodes)
                    if (looked[static_cast<size_t>(v)] !=
                        solved[static_cast<size_t>(v)]) {
                        ADD_FAILURE() << "component " << c << " table "
                                      << table << " row " << r << " prev "
                                      << p << " node " << v;
                        return tabulated;
                    }
            }
        }
    }
    return tabulated;
}

TEST(CompiledTables, EveryEntryEqualsTheSolver) {
    // One instance of each library cell: every CCC of the library is
    // eligible and gets a table.
    for (const cell::Cell& lib : cell::standard_library()) {
        SCOPED_TRACE(lib.name);
        Circuit c(lib.name);
        std::vector<netlist::NetId> ins;
        for (int i = 0; i < lib.arity; ++i)
            ins.push_back(c.add_input("i" + std::to_string(i)));
        c.mark_output(c.add_gate(lib.function, "y", ins));
        const SwitchNetlist net = build_switch_netlist(c);
        ASSERT_EQ(net.cells[0], &lib);
        const SwitchSim sim(net);
        EXPECT_EQ(expect_tables_exact(sim), sim.component_count());
    }
    for (const Circuit& raw : {netlist::build_c17(), netlist::build_c432()}) {
        SCOPED_TRACE(raw.name());
        const Circuit mapped = netlist::techmap(raw);
        const SwitchNetlist net = build_switch_netlist(mapped);
        const SwitchSim sim(net);
        EXPECT_EQ(expect_tables_exact(sim), sim.component_count());
        // Instances share their cell's tables.
        EXPECT_LE(sim.table_count(), 2 * cell::standard_library().size());
    }
}

TEST(CompiledTables, SelfGatedComponentsKeepTheSolver) {
    // A keeper: the output inverter's node gates a transistor of its own
    // component, so the table's inputs would not be independent of it.
    SwitchNetlist net;
    enum : NodeId { kA = 2, kY = 3 };
    net.node_count = 4;
    net.input_nodes = {kA};
    net.output_nodes = {kY};
    net.transistors.push_back({true, kA, SwitchNetlist::kVdd, kY});
    net.transistors.push_back({false, kA, kY, SwitchNetlist::kGnd});
    net.transistors.push_back({true, kY, SwitchNetlist::kVdd, kY});
    const SwitchSim sim(net);
    ASSERT_EQ(sim.component_count(), 1);
    EXPECT_EQ(sim.table_of(0), -1);
    EXPECT_TRUE(sim.in_cyclic_tail(0));
}

// ---- fault-site response rows ----------------------------------------------

/// The solve groups the fault simulator gives `fault`: the merged group of
/// a bridge across components, else each seed component alone.
std::vector<std::vector<std::int32_t>> seed_groups(const SwitchSim& sim,
                                                   const SwitchFault& fault) {
    std::vector<std::int32_t> seeds;
    const auto add = [&](NodeId n) {
        const std::int32_t c = sim.component_of()[static_cast<size_t>(n)];
        if (c >= 0 && std::find(seeds.begin(), seeds.end(), c) == seeds.end())
            seeds.push_back(c);
    };
    if (fault.kind == SwitchFault::Kind::Bridge) {
        for (NodeId n : {fault.a, fault.b, fault.c})
            if (n >= 0) add(n);
        if (seeds.size() >= 2) return {seeds};
    } else {
        for (int t : fault.transistors) {
            const auto& tr = sim.netlist().transistors[static_cast<size_t>(t)];
            add(tr.source == SwitchNetlist::kGnd ||
                        tr.source == SwitchNetlist::kVdd
                    ? tr.drain
                    : tr.source);
        }
    }
    std::vector<std::vector<std::int32_t>> out;
    for (std::int32_t c : seeds) out.push_back({c});
    return out;
}

/// For random read-set values (X with probability `p_x`) and random mixed
/// prev, solve_component on `group` equals, node by node, the uniform-prev
/// solve at that node's own prev: the row decomposition the fault
/// simulator stores.  Also perturbs every net outside the read set and
/// expects the same solve.  Returns the trials with more than six X read
/// nets (solve_component's kMaxVars fallback when they are gates).
int expect_separable(const SwitchSim& sim, std::span<const std::int32_t> group,
                     const SwitchFault* fault, std::mt19937& rng, int trials,
                     double p_x = 1.0 / 3) {
    SwitchSim::FaultView fv;
    fv.fault = fault;
    const std::vector<NodeId> reads = sim.solve_reads(group, fv);
    std::vector<NodeId> nodes;
    for (std::int32_t c : group)
        for (NodeId v : sim.component_nodes(c)) nodes.push_back(v);
    std::vector<char> is_read(static_cast<size_t>(sim.netlist().node_count), 0);
    for (NodeId v : reads) is_read[static_cast<size_t>(v)] = 1;
    std::bernoulli_distribution x_draw(p_x);
    const auto random_sv = [&] {
        return x_draw(rng) ? SV::X : static_cast<SV>(rng() % 2);
    };
    int many_x = 0;
    auto state = sim.initial_state();
    auto prev = sim.initial_state();
    for (int trial = 0; trial < trials; ++trial) {
        int xs = 0;
        for (NodeId v = 2; v < sim.netlist().node_count; ++v)
            state[static_cast<size_t>(v)] = random_sv();
        for (NodeId v : reads) xs += state[static_cast<size_t>(v)] == SV::X;
        many_x += xs > 6;
        for (NodeId v : nodes)
            prev[static_cast<size_t>(v)] = static_cast<SV>(rng() % 3);

        auto solved = state;
        sim.solve_component(solved, prev, group, fv);
        std::array<SwitchSim::State, 3> uniform;
        for (int p = 0; p < 3; ++p) {
            auto pr = prev;
            for (NodeId v : nodes) pr[static_cast<size_t>(v)] = static_cast<SV>(p);
            uniform[static_cast<size_t>(p)] = state;
            sim.solve_component(uniform[static_cast<size_t>(p)], pr, group, fv);
        }
        auto moved = state;
        for (NodeId v = 2; v < sim.netlist().node_count; ++v)
            if (!is_read[static_cast<size_t>(v)])
                moved[static_cast<size_t>(v)] = random_sv();
        sim.solve_component(moved, prev, group, fv);
        for (NodeId v : nodes) {
            const size_t i = static_cast<size_t>(v);
            const SV want = uniform[static_cast<size_t>(prev[i])][i];
            if (solved[i] != want || moved[i] != solved[i]) {
                ADD_FAILURE() << "group of component " << group[0]
                              << " node " << v << " trial " << trial
                              << ": solve " << static_cast<int>(solved[i])
                              << ", row " << static_cast<int>(want)
                              << ", outside the read set moved "
                              << static_cast<int>(moved[i]);
                return many_x;
            }
        }
    }
    return many_x;
}

TEST(FaultRows, SolveIsSeparableInPrev) {
    const FlowFaults ff(netlist::build_c432());
    std::mt19937 rng(2323);
    int merged = 0;
    int self_gated = 0;
    int opens = 0;
    std::array<int, 3> floats{};  // Low, High, Mid
    for (const WeightedFault& wf : ff.faults) {
        const SwitchFault& f = wf.fault;
        for (const auto& group : seed_groups(ff.sim, f)) {
            if (group.size() > 1) {
                ++merged;
                SwitchSim::FaultView fv;
                fv.fault = &f;
                for (NodeId v : ff.sim.solve_reads(group, fv)) {
                    const std::int32_t c =
                        ff.sim.component_of()[static_cast<size_t>(v)];
                    if (std::find(group.begin(), group.end(), c) !=
                        group.end()) {
                        ++self_gated;
                        break;
                    }
                }
            }
            if (f.kind == SwitchFault::Kind::TransistorOpen) ++opens;
            if (f.kind == SwitchFault::Kind::GateFloat)
                ++floats[static_cast<size_t>(f.float_level)];
            expect_separable(ff.sim, group, &f, rng, 3);
            if (HasFailure()) return;
        }
    }
    EXPECT_GT(merged, 0);
    EXPECT_GT(self_gated, 0);
    EXPECT_GT(opens, 0);
    for (int n : floats) EXPECT_GT(n, 0);

    // Past kMaxVars: eight gate nets on one output, one of them through a
    // series node that keeps its charge when that gate is off.
    SwitchNetlist net;
    enum : NodeId { kOut = 10, kMid = 11 };
    net.node_count = 12;
    for (NodeId g = 2; g < 10; ++g) net.input_nodes.push_back(g);
    net.output_nodes = {kOut};
    for (NodeId g = 2; g < 9; ++g)
        net.transistors.push_back({false, g, kOut, SwitchNetlist::kGnd});
    net.transistors.push_back({true, 2, SwitchNetlist::kVdd, kOut});
    net.transistors.push_back({false, 9, kOut, kMid});
    const SwitchSim sim(net);
    ASSERT_EQ(sim.component_count(), 1);
    const std::int32_t comp = 0;
    SwitchFault mid_float;
    mid_float.kind = SwitchFault::Kind::GateFloat;
    mid_float.float_level = SwitchFault::FloatLevel::Mid;
    mid_float.transistors = {3};
    EXPECT_GT(expect_separable(sim, std::span(&comp, 1), nullptr, rng, 200, 0.8),
              0);
    EXPECT_GT(expect_separable(sim, std::span(&comp, 1), &mid_float, rng, 200,
                               0.8),
              0);
}

TEST(FaultRows, LongSequenceWithChargeRetention) {
    // Many opens (retained charge), mid-band floating gates (X) and
    // feedback bridges (loop restarts) over 320 vectors: each fault's rows
    // are reused across vectors under different retained charge.
    const Circuit c = netlist::techmap(netlist::build_random_circuit(6, 24, 31));
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    std::mt19937 rng(256);
    std::vector<WeightedFault> faults;
    const int transistors = static_cast<int>(net.transistors.size());
    for (int k = 0; k < 24; ++k) {
        WeightedFault open;
        open.fault.kind = SwitchFault::Kind::TransistorOpen;
        open.fault.transistors = {static_cast<int>(rng() % transistors)};
        open.name = "open" + std::to_string(k);
        faults.push_back(open);
        WeightedFault mid;
        mid.fault.kind = SwitchFault::Kind::GateFloat;
        mid.fault.float_level = SwitchFault::FloatLevel::Mid;
        mid.fault.transistors = {static_cast<int>(rng() % transistors)};
        mid.name = "mid" + std::to_string(k);
        faults.push_back(mid);
    }
    int loops = 0;
    for (int tries = 0; tries < 4000 && loops < 16; ++tries) {
        WeightedFault br;
        br.fault.kind = SwitchFault::Kind::Bridge;
        br.fault.a = net.node_of_net(static_cast<netlist::NetId>(
            rng() % static_cast<unsigned>(c.gate_count())));
        br.fault.b = net.node_of_net(static_cast<netlist::NetId>(
            rng() % static_cast<unsigned>(c.gate_count())));
        if (!is_feedback_bridge(sim, br.fault)) continue;
        br.name = "loop" + std::to_string(loops++);
        faults.push_back(br);
    }
    ASSERT_EQ(loops, 16);

    std::vector<Vector> vectors;
    for (const auto& v : random_vectors(c, 320, 57)) vectors.push_back(unpack(v));
    obs::set_enabled(true);
    obs::reset();
    expect_matches_reference(sim, faults, vectors);
    long long rows = 0;
    long long hits = 0;
    for (const auto& [name, value] : obs::counters_snapshot()) {
        if (name == "faultsim.switch.fault_rows") rows = value;
        if (name == "faultsim.switch.fault_row_hits") hits = value;
    }
    obs::set_enabled(false);
    obs::reset();
    EXPECT_GT(rows, 0);
    EXPECT_GT(hits, 10 * rows);
}

// ---- faults that only weaken ---------------------------------------------

TEST(WeakeningFaults, ReferenceNeverContradictsGood) {
    // A floating gate with no definite level (mid band, or any float under
    // the Unknown model) can only weaken good values: after every vector,
    // each node of the reference faulty state equals the good state or is
    // X.  The simulator never simulates these faults, so its detections
    // must still equal the brute-force reference, which does.  Opens and
    // Low/High floats on the same transistors are simulated as usual, and
    // some of them are detected.
    SimParams unknown;
    unknown.float_gate = FloatGateModel::Unknown;
    for (const unsigned seed : {31u, 47u, 59u}) {
        SCOPED_TRACE(seed);
        const Circuit c =
            netlist::techmap(netlist::build_random_circuit(6, 24, seed));
        const SwitchNetlist net = build_switch_netlist(c);
        const unsigned transistors =
            static_cast<unsigned>(net.transistors.size());
        std::mt19937 rng(seed);
        // One transistor, or every transistor one net gates (an open that
        // cuts the whole net).
        std::vector<std::vector<int>> sets;
        for (int k = 0; k < 8; ++k) {
            sets.push_back({static_cast<int>(rng() % transistors)});
            const NodeId g = net.transistors[rng() % transistors].gate;
            std::vector<int> gated;
            for (unsigned t = 0; t < transistors; ++t)
                if (net.transistors[t].gate == g)
                    gated.push_back(static_cast<int>(t));
            sets.push_back(gated);
        }
        std::vector<WeightedFault> faults;
        for (size_t k = 0; k < sets.size(); ++k) {
            WeightedFault f;
            f.fault.transistors = sets[k];
            f.fault.kind = SwitchFault::Kind::TransistorOpen;
            f.name = "open" + std::to_string(k);
            faults.push_back(f);
            f.fault.kind = SwitchFault::Kind::GateFloat;
            for (const auto& [level, name] :
                 {std::pair{SwitchFault::FloatLevel::Low, "low"},
                  std::pair{SwitchFault::FloatLevel::High, "high"},
                  std::pair{SwitchFault::FloatLevel::Mid, "mid"}}) {
                f.fault.float_level = level;
                f.name = name + std::to_string(k);
                faults.push_back(f);
            }
        }
        std::vector<Vector> vectors;
        for (const auto& v : random_vectors(c, 320, seed))
            vectors.push_back(unpack(v));

        for (const SimParams& params : {SimParams{}, unknown}) {
            const SwitchSim sim(net, params);
            std::vector<SwitchSim::State> good;
            auto st = sim.initial_state();
            for (const Vector& v : vectors) {
                step_vec(sim, st, v);
                good.push_back(st);
            }
            size_t weakening = 0;
            long long weakened = 0;  // node-vectors: good definite, faulty X
            for (const WeightedFault& wf : faults) {
                if (!sim.gate_float_unknown(wf.fault)) continue;
                ++weakening;
                auto faulty = sim.initial_state();
                for (size_t k = 0; k < vectors.size(); ++k) {
                    step_vec_faulty(sim, faulty, vectors[k], wf.fault);
                    for (size_t v = 0; v < faulty.size(); ++v) {
                        if (faulty[v] == good[k][v]) continue;
                        ASSERT_EQ(faulty[v], SV::X)
                            << wf.name << " vector " << k << " node " << v;
                        ++weakened;
                    }
                }
            }
            const bool all_floats =
                params.float_gate == FloatGateModel::Unknown;
            EXPECT_EQ(weakening, (all_floats ? 3 : 1) * sets.size());
            EXPECT_GT(weakened, 0);

            const std::vector<int> det =
                expect_matches_reference(sim, faults, vectors);
            int detected = 0;
            for (size_t fi = 0; fi < faults.size(); ++fi)
                if (!sim.gate_float_unknown(faults[fi].fault) && det[fi] > 0)
                    ++detected;
            EXPECT_GT(detected, 0);
        }
    }
}

/// settle() equals the reference step() state for state on every vector.
void expect_settle_matches_step(const SwitchSim& sim,
                                const std::vector<Vector>& vectors) {
    auto ref = sim.initial_state();
    auto cur = sim.initial_state();
    SwitchSim::State next;
    for (size_t k = 0; k < vectors.size(); ++k) {
        std::unique_ptr<bool[]> b(new bool[vectors[k].size()]);
        std::copy(vectors[k].begin(), vectors[k].end(), b.get());
        const std::span<const bool> in(b.get(), vectors[k].size());
        sim.step(ref, in);
        sim.settle(next, cur, in);
        std::swap(cur, next);
        ASSERT_EQ(cur, ref) << "vector " << k;
    }
}

TEST(LevelizedTrace, EqualsReferenceStep) {
    for (const auto& [raw, n] : std::vector<std::pair<Circuit, int>>{
             {netlist::build_c17(), 64},
             {netlist::build_ripple_adder(4), 64},
             {netlist::build_c432(), 256}}) {
        SCOPED_TRACE(raw.name());
        const Circuit mapped = netlist::techmap(raw);
        const SwitchNetlist net = build_switch_netlist(mapped);
        const SwitchSim sim(net);
        std::vector<Vector> vectors;
        for (const auto& v : random_vectors(mapped, n, 41))
            vectors.push_back(unpack(v));
        expect_settle_matches_step(sim, vectors);
    }
    // The latch's two components form the cyclic tail, swept from X.
    const SwitchNetlist latch = latch_netlist();
    const SwitchSim sim(latch);
    EXPECT_TRUE(sim.in_cyclic_tail(0));
    EXPECT_TRUE(sim.in_cyclic_tail(1));
    expect_settle_matches_step(sim, latch_vectors());
}

// ---- metamorphic invariances ---------------------------------------------

struct Outcome {
    std::vector<int> detected_at;
    std::vector<int> iddq_at;
    std::vector<double> theta;
    std::vector<double> gamma;
    std::vector<double> theta_iddq;
};

Outcome run_outcome(const SwitchSim& sim,
                    const std::vector<WeightedFault>& faults,
                    std::span<const Vector> vectors, int threads,
                    std::span<const size_t> splits = {}) {
    SwitchFaultSimulator fs(sim, faults, parallel::ParallelOptions{threads});
    size_t at = 0;
    for (size_t cut : splits) {
        fs.apply(vectors.subspan(at, cut - at));
        at = cut;
    }
    fs.apply(vectors.subspan(at));
    return {{fs.first_detected_at().begin(), fs.first_detected_at().end()},
            {fs.iddq_detected_at().begin(), fs.iddq_detected_at().end()},
            fs.weighted_coverage_curve(),
            fs.unweighted_coverage_curve(),
            fs.weighted_coverage_curve_with_iddq()};
}

void expect_same(const Outcome& got, const Outcome& want) {
    EXPECT_EQ(got.detected_at, want.detected_at);
    EXPECT_EQ(got.iddq_at, want.iddq_at);
    EXPECT_EQ(got.theta, want.theta);
    EXPECT_EQ(got.gamma, want.gamma);
    EXPECT_EQ(got.theta_iddq, want.theta_iddq);
}

void expect_metamorphic(const SwitchSim& sim,
                        const std::vector<WeightedFault>& faults,
                        const std::vector<Vector>& vectors) {
    const Outcome base = run_outcome(sim, faults, vectors, 1);

    for (int threads : {2, 4, 8}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expect_same(run_outcome(sim, faults, vectors, threads), base);
    }

    const size_t n = vectors.size();
    const std::vector<std::vector<size_t>> split_sets{
        {1}, {n / 2}, {3, 64 % n, n - 1}, {5, 6, 7, n / 3, (2 * n) / 3}};
    for (const auto& splits : split_sets) {
        std::vector<size_t> cuts(splits);
        std::sort(cuts.begin(), cuts.end());
        SCOPED_TRACE("split at " + std::to_string(cuts.front()));
        expect_same(run_outcome(sim, faults, vectors, 3, cuts), base);
    }

    // Permuting the fault list permutes the per-fault results.  Gamma counts
    // faults and stays exact; theta sums weights in fault order, so it may
    // move in the last bits (tens of ulps over thousands of faults).
    std::vector<size_t> perm(faults.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), std::mt19937(99));
    std::vector<WeightedFault> shuffled;
    for (size_t i : perm) shuffled.push_back(faults[i]);
    const Outcome p = run_outcome(sim, shuffled, vectors, 4);
    for (size_t i = 0; i < perm.size(); ++i) {
        EXPECT_EQ(p.detected_at[i], base.detected_at[perm[i]]);
        EXPECT_EQ(p.iddq_at[i], base.iddq_at[perm[i]]);
    }
    EXPECT_EQ(p.gamma, base.gamma);
    ASSERT_EQ(p.theta.size(), base.theta.size());
    for (size_t k = 0; k < p.theta.size(); ++k) {
        EXPECT_NEAR(p.theta[k], base.theta[k], 1e-12);
        EXPECT_NEAR(p.theta_iddq[k], base.theta_iddq[k], 1e-12);
    }
}

TEST_P(ExtractedFaultList, MetamorphicInvariances) {
    const FlowFaults ff(GetParam()());
    expect_metamorphic(ff.sim, ff.faults,
                       random_vectors(ff.design.mapped, 96, 23));
}

TEST(ExtractedFaultListC432, MetamorphicInvariances) {
    const FlowFaults ff(netlist::build_c432());
    expect_metamorphic(ff.sim, c432_sample(ff),
                       random_vectors(ff.design.mapped, 80, 29));
}

TEST(ParallelDeterminism, ThreadCountInvariant) {
    // The parallel fan-out must be bit-identical to the serial path: same
    // detection indices, same IDDQ indices, same coverage curves, for any
    // worker count (including more workers than a core count or fault
    // chunk count would suggest).
    const Circuit c = netlist::techmap(netlist::build_ripple_adder(3));
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);

    std::vector<WeightedFault> faults;
    double w = 1.0;
    for (netlist::NetId n = 0; n + 1 < c.gate_count(); n += 5) {
        WeightedFault f;
        f.fault.kind = SwitchFault::Kind::Bridge;
        f.fault.a = net.node_of_net(n);
        f.fault.b = net.node_of_net(n + 1);
        f.weight = (w *= 1.07);
        f.name = "bridge" + std::to_string(n);
        faults.push_back(f);
    }
    for (int t = 0; t < static_cast<int>(net.transistors.size()); t += 7) {
        WeightedFault f;
        f.fault.kind = SwitchFault::Kind::TransistorOpen;
        f.fault.transistors = {t};
        f.weight = (w *= 1.03);
        f.name = "open" + std::to_string(t);
        faults.push_back(f);
        WeightedFault g;
        g.fault.kind = SwitchFault::Kind::GateFloat;
        g.fault.transistors = {t};
        g.weight = (w *= 1.05);
        g.name = "float" + std::to_string(t);
        faults.push_back(g);
        g.fault.float_level = SwitchFault::FloatLevel::Mid;
        g.weight = (w *= 1.02);
        g.name = "mid" + std::to_string(t);
        faults.push_back(g);
    }
    const auto mid_floats = std::count_if(
        faults.begin(), faults.end(),
        [&](const WeightedFault& f) { return sim.gate_float_unknown(f.fault); });

    gatesim::RandomPatternGenerator rng(13);
    std::vector<Vector> vv;
    for (const auto& v : rng.vectors(c, 48)) vv.push_back(unpack(v));

    // The table and solver counters are summed per fault-vector, and the
    // skipped faults are counted per simulator, so they too are
    // independent of the worker count.
    obs::set_enabled(true);
    const auto counters = [] {
        std::map<std::string, long long> out;
        for (const auto& [name, value] : obs::counters_snapshot())
            if (name == "faultsim.switch.table_hits" ||
                name == "faultsim.switch.good_solves" ||
                name == "faultsim.switch.solves" ||
                name == "faultsim.switch.fault_rows" ||
                name == "faultsim.switch.fault_row_hits" ||
                name == "faultsim.switch.weakening_faults")
                out[name] = value;
        return out;
    };
    obs::reset();
    SwitchFaultSimulator serial(sim, faults, parallel::ParallelOptions{1});
    serial.apply(vv);
    const auto serial_counters = counters();
    EXPECT_GT(serial_counters.at("faultsim.switch.table_hits"), 0);
    EXPECT_GT(serial_counters.at("faultsim.switch.fault_row_hits"), 0);
    EXPECT_GT(mid_floats, 0);
    EXPECT_EQ(serial_counters.at("faultsim.switch.weakening_faults"),
              mid_floats);
    const std::vector<int> serial_det(serial.first_detected_at().begin(),
                                      serial.first_detected_at().end());
    const std::vector<int> serial_iddq(serial.iddq_detected_at().begin(),
                                       serial.iddq_detected_at().end());

    for (int threads : {2, 4, 8}) {
        SCOPED_TRACE(threads);
        obs::reset();
        SwitchFaultSimulator par(sim, faults,
                                 parallel::ParallelOptions{threads});
        // Split the sequence to also exercise multi-call state carry-over.
        par.apply(std::span<const Vector>(vv).first(17));
        par.apply(std::span<const Vector>(vv).subspan(17));
        EXPECT_EQ(std::vector<int>(par.first_detected_at().begin(),
                                   par.first_detected_at().end()),
                  serial_det);
        EXPECT_EQ(std::vector<int>(par.iddq_detected_at().begin(),
                                   par.iddq_detected_at().end()),
                  serial_iddq);
        EXPECT_EQ(par.weighted_coverage_curve(),
                  serial.weighted_coverage_curve());
        EXPECT_EQ(par.unweighted_coverage_curve(),
                  serial.unweighted_coverage_curve());
        EXPECT_EQ(par.weighted_coverage_curve_with_iddq(),
                  serial.weighted_coverage_curve_with_iddq());
        EXPECT_EQ(counters(), serial_counters);
    }
    obs::set_enabled(false);
    obs::reset();
}

TEST(SwitchFaultSimulator, ProgressReportsBatches) {
    const Circuit c = netlist::techmap(netlist::build_c17());
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    WeightedFault f;
    f.fault.kind = SwitchFault::Kind::Gross;
    SwitchFaultSimulator fs(sim, {f}, parallel::ParallelOptions{2});
    std::size_t calls = 0;
    std::size_t last_done = 0;
    fs.set_progress([&](std::string_view stage, std::size_t done,
                        std::size_t total) {
        EXPECT_EQ(stage, "switch-sim");
        EXPECT_LE(done, total);
        last_done = done;
        ++calls;
    });
    const std::vector<Vector> vv(100, Vector(5, false));
    fs.apply(vv);
    EXPECT_GE(calls, 2u) << "100 vectors span at least two 64-wide batches";
    EXPECT_EQ(last_done, vv.size());
}

TEST(SwitchFaultSimulator, GrossFailsFirstVector) {
    const Circuit c = netlist::techmap(netlist::build_c17());
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    WeightedFault f;
    f.fault.kind = SwitchFault::Kind::Gross;
    SwitchFaultSimulator fs(sim, {f});
    fs.apply(std::vector<Vector>{Vector(5, false)});
    EXPECT_EQ(fs.first_detected_at()[0], 1);
}

TEST(SwitchFaultSimulator, PoFloatNeverDetected) {
    const Circuit c = netlist::techmap(netlist::build_c17());
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    WeightedFault f;
    f.fault.kind = SwitchFault::Kind::None;
    f.fault.po_float = 0;
    SwitchFaultSimulator fs(sim, {f});
    gatesim::RandomPatternGenerator rng(2);
    std::vector<Vector> vv;
    for (const auto& v : rng.vectors(c, 32)) vv.push_back(unpack(v));
    fs.apply(vv);
    EXPECT_EQ(fs.first_detected_at()[0], -1);
}

TEST(SwitchFaultSimulator, CoverageCurvesMonotoneAndConsistent) {
    const Circuit c = netlist::techmap(netlist::build_c17());
    const SwitchNetlist net = build_switch_netlist(c);
    const SwitchSim sim(net);
    std::vector<WeightedFault> faults;
    for (netlist::NetId n = 0; n + 1 < c.gate_count(); ++n) {
        WeightedFault f;
        f.fault.kind = SwitchFault::Kind::Bridge;
        f.fault.a = net.node_of_net(n);
        f.fault.b = net.node_of_net(n + 1);
        f.weight = 0.5 + n;
        faults.push_back(f);
    }
    SwitchFaultSimulator fs(sim, faults);
    gatesim::RandomPatternGenerator rng(5);
    std::vector<Vector> vv;
    for (const auto& v : rng.vectors(c, 64)) vv.push_back(unpack(v));
    fs.apply(vv);
    const auto theta = fs.weighted_coverage_curve();
    const auto gamma = fs.unweighted_coverage_curve();
    ASSERT_EQ(theta.size(), 64u);
    for (size_t i = 1; i < theta.size(); ++i) {
        EXPECT_GE(theta[i], theta[i - 1]);
        EXPECT_GE(gamma[i], gamma[i - 1]);
    }
    EXPECT_NEAR(theta.back(), fs.weighted_coverage(), 1e-12);
    EXPECT_NEAR(gamma.back(), fs.unweighted_coverage(), 1e-12);
    EXPECT_GT(fs.weighted_coverage(), 0.5) << "most bridges detectable";
}

}  // namespace
}  // namespace dlp::switchsim
