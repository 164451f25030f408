// Tests for the switch-level simulator: fault-free equivalence with the
// gate-level simulator, bridge arbitration, stuck-open charge retention,
// floating gates, and the incremental fault simulator.
#include <gtest/gtest.h>

#include "gatesim/logic_sim.h"
#include "gatesim/patterns.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"
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
    gatesim::RandomPatternGenerator rng(23);
    const auto vectors = rng.vectors(c, 40);
    SwitchFaultSimulator inc(sim, faults);
    std::vector<Vector> vv;
    for (const auto& v : vectors) vv.push_back(unpack(v));
    inc.apply(vv);

    for (size_t fi = 0; fi < faults.size(); ++fi) {
        auto good = sim.initial_state();
        auto faulty = sim.initial_state();
        int first = -1;
        for (size_t k = 0; k < vectors.size() && first < 0; ++k) {
            step_vec(sim, good, vectors[k]);
            step_vec_faulty(sim, faulty, vectors[k], faults[fi].fault);
            const auto go = sim.outputs(good);
            const auto fo = sim.outputs(faulty);
            for (size_t o = 0; o < go.size(); ++o)
                if (go[o] != SV::X && fo[o] != SV::X && go[o] != fo[o]) {
                    first = static_cast<int>(k) + 1;
                    break;
                }
        }
        EXPECT_EQ(inc.first_detected_at()[fi], first) << faults[fi].name;
    }
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

    gatesim::RandomPatternGenerator rng(13);
    const auto vectors = rng.vectors(c, 48);

    SwitchFaultSimulator inc(sim, faults);
    std::vector<Vector> vv;
    for (const auto& v : vectors) vv.push_back(unpack(v));
    inc.apply(vv);

    // Brute force reference.
    for (size_t fi = 0; fi < faults.size(); ++fi) {
        auto good = sim.initial_state();
        auto faulty = sim.initial_state();
        int first = -1;
        for (size_t k = 0; k < vectors.size(); ++k) {
            step_vec(sim, good, vectors[k]);
            step_vec_faulty(sim, faulty, vectors[k], faults[fi].fault);
            const auto go = sim.outputs(good);
            const auto fo = sim.outputs(faulty);
            for (size_t o = 0; o < go.size(); ++o)
                if (go[o] != SV::X && fo[o] != SV::X && go[o] != fo[o]) {
                    first = static_cast<int>(k) + 1;
                    break;
                }
            if (first >= 0) break;
        }
        EXPECT_EQ(inc.first_detected_at()[fi], first)
            << faults[fi].name << ": incremental vs brute force";
    }
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
    }

    gatesim::RandomPatternGenerator rng(13);
    std::vector<Vector> vv;
    for (const auto& v : rng.vectors(c, 48)) vv.push_back(unpack(v));

    SwitchFaultSimulator serial(sim, faults, parallel::ParallelOptions{1});
    serial.apply(vv);
    const std::vector<int> serial_det(serial.first_detected_at().begin(),
                                      serial.first_detected_at().end());
    const std::vector<int> serial_iddq(serial.iddq_detected_at().begin(),
                                       serial.iddq_detected_at().end());

    for (int threads : {2, 4, 8}) {
        SCOPED_TRACE(threads);
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
    }
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
