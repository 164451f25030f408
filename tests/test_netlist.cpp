// Tests for the netlist IR, .bench parser, builders and techmap.
#include <gtest/gtest.h>

#include "gatesim/logic_sim.h"
#include "gatesim/patterns.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"

namespace dlp::netlist {
namespace {

TEST(Circuit, TopologicalByConstruction) {
    Circuit c("t");
    const NetId a = c.add_input("a");
    EXPECT_THROW(c.add_gate(GateType::Not, "x", {42}), std::invalid_argument);
    const NetId n = c.add_gate(GateType::Not, "n", {a});
    c.mark_output(n);
    EXPECT_EQ(c.gate_count(), 2u);
    EXPECT_EQ(c.logic_gate_count(), 1u);
    EXPECT_TRUE(c.validate().empty());
}

TEST(Circuit, ArityChecks) {
    Circuit c("t");
    const NetId a = c.add_input("a");
    EXPECT_THROW(c.add_gate(GateType::Not, "x", {a, a}),
                 std::invalid_argument);
    EXPECT_THROW(c.add_gate(GateType::And, "x", {a}), std::invalid_argument);
    EXPECT_THROW(c.add_gate(GateType::Input, "x", {}), std::invalid_argument);
}

TEST(Circuit, ValidateFindsDanglingAndDuplicates) {
    Circuit c("t");
    const NetId a = c.add_input("a");
    c.add_gate(GateType::Not, "n", {a});  // dangling, not marked output
    const auto problems = c.validate();
    ASSERT_FALSE(problems.empty());
}

TEST(Circuit, LevelsAndDepth) {
    const Circuit c = build_c17();
    const auto lv = c.levels();
    EXPECT_EQ(lv[c.find("1")], 0);
    EXPECT_EQ(lv[c.find("10")], 1);
    EXPECT_EQ(lv[c.find("22")], 3);
    EXPECT_EQ(c.depth(), 3);
}

TEST(Circuit, EvalGateTruthTables) {
    const std::uint64_t a = 0b0011;
    const std::uint64_t b = 0b0101;
    const std::uint64_t in[] = {a, b};
    EXPECT_EQ(eval_gate(GateType::And, in) & 0xF, 0b0001u);
    EXPECT_EQ(eval_gate(GateType::Or, in) & 0xF, 0b0111u);
    EXPECT_EQ(eval_gate(GateType::Nand, in) & 0xF, 0b1110u);
    EXPECT_EQ(eval_gate(GateType::Nor, in) & 0xF, 0b1000u);
    EXPECT_EQ(eval_gate(GateType::Xor, in) & 0xF, 0b0110u);
    EXPECT_EQ(eval_gate(GateType::Xnor, in) & 0xF, 0b1001u);
}

TEST(Bench, ParseAndRoundTrip) {
    const char* text = R"(
# comment
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NAND(a, w)   # forward reference below
w = NOT(b)
)";
    const Circuit c = parse_bench(text, "mini");
    EXPECT_EQ(c.inputs().size(), 2u);
    EXPECT_EQ(c.outputs().size(), 1u);
    EXPECT_TRUE(c.validate().empty());

    const Circuit c2 = parse_bench(to_bench(c), "mini");
    EXPECT_EQ(c2.gate_count(), c.gate_count());
    EXPECT_EQ(to_bench(c2), to_bench(c));
}

TEST(Bench, ForwardReferencesEmitInPassOrder) {
    // Every data/*.bench file is topologically ordered, so this pins the
    // emission order for forward references: repeated passes over file
    // order, each gate as soon as its fanins exist.  NetIds (and every
    // digest and cache key built on them) follow this order.
    const char* text =
        "# forward references, listed against topological order\n"
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nOUTPUT(q)\n"
        "z = NAND(y, x)\n"
        "q = NOR(w, c)\n"
        "y = OR(x, w)\n"
        "x = AND(v, b)\n"
        "w = XOR(a, v)\n"
        "v = NOT(c)\n"
        "u = BUFF(a)\n"
        "p = XNOR(u, q)\n"
        "OUTPUT(p)\n";
    EXPECT_EQ(to_bench(parse_bench(text, "fwd")),
              "# fwd\n"
              "INPUT(a)\nINPUT(b)\nINPUT(c)\n"
              "OUTPUT(z)\nOUTPUT(q)\nOUTPUT(p)\n"
              "v = NOT(c)\n"
              "u = BUF(a)\n"
              "x = AND(v, b)\n"
              "w = XOR(a, v)\n"
              "q = NOR(w, c)\n"
              "y = OR(x, w)\n"
              "p = XNOR(u, q)\n"
              "z = NAND(y, x)\n");
}

TEST(Bench, LoadsC17FileMatchingBuilder) {
    // data/c17.bench ships with the repo; it must match build_c17().
    Circuit from_file;
    bool found = false;
    for (const char* path : {"data/c17.bench", "../data/c17.bench",
                             "../../data/c17.bench"}) {
        try {
            from_file = load_bench_file(path);
            found = true;
            break;
        } catch (const std::runtime_error&) {
        }
    }
    if (!found) GTEST_SKIP() << "c17.bench not found from this cwd";
    const Circuit built = build_c17();
    EXPECT_EQ(from_file.gate_count(), built.gate_count());
    EXPECT_EQ(from_file.inputs().size(), built.inputs().size());
    gatesim::RandomPatternGenerator rng(4);
    for (int i = 0; i < 32; ++i) {
        const auto v = rng.next_vector(built);
        const auto a = gatesim::simulate(built, v);
        const auto b = gatesim::simulate(from_file, v);
        for (size_t o = 0; o < built.outputs().size(); ++o)
            ASSERT_EQ(a[built.outputs()[o]], b[from_file.outputs()[o]]);
    }
}

TEST(Bench, Errors) {
    EXPECT_THROW(parse_bench("y = FROB(a)", "x"), std::runtime_error);
    EXPECT_THROW(parse_bench("INPUT(a)\ny = NOT(zz)\nOUTPUT(y)", "x"),
                 std::runtime_error);
    EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(q)", "x"), std::runtime_error);
    // Combinational cycle.
    EXPECT_THROW(parse_bench("INPUT(a)\nu = NOT(v)\nv = NOT(u)\nOUTPUT(u)",
                             "x"),
                 std::runtime_error);
}

TEST(Bench, RejectsDuplicateOutputDeclaration) {
    const char* text = "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\nOUTPUT(y)\n";
    try {
        parse_bench(text, "x");
        FAIL() << "duplicate OUTPUT accepted";
    } catch (const std::runtime_error& e) {
        // Diagnostic carries the duplicate's line and points at the first.
        EXPECT_NE(std::string(e.what()).find("bench:4"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("duplicate OUTPUT"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
            << e.what();
    }
}

TEST(Bench, RejectsNetDeclaredInputAndOutput) {
    const char* text = "INPUT(a)\nOUTPUT(a)\ny = NOT(a)\nOUTPUT(y)\n";
    try {
        parse_bench(text, "x");
        FAIL() << "INPUT+OUTPUT conflict accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("bench:2"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("both INPUT"), std::string::npos)
            << e.what();
    }
}

TEST(Builders, C17MatchesKnownStructure) {
    const Circuit c = build_c17();
    EXPECT_EQ(c.inputs().size(), 5u);
    EXPECT_EQ(c.outputs().size(), 2u);
    EXPECT_EQ(c.logic_gate_count(), 6u);
    EXPECT_TRUE(c.validate().empty());
    // All-ones input: every NAND of ones chain: 10=0,11=0,16=1,19=1,22=1,23=0
    const auto v = gatesim::simulate(c, gatesim::Vector(5, true));
    EXPECT_TRUE(v[c.find("22")]);
    EXPECT_FALSE(v[c.find("23")]);
}

TEST(Builders, C432ProfileMatchesIscas) {
    const Circuit c = build_c432();
    EXPECT_EQ(c.inputs().size(), 36u);
    EXPECT_EQ(c.outputs().size(), 7u);
    EXPECT_TRUE(c.validate().empty());
    // Size class of the original (~160 gates plus fanout buffers).
    EXPECT_GT(c.logic_gate_count(), 100u);
    EXPECT_LT(c.logic_gate_count(), 400u);
}

TEST(Builders, C432PriorityBehaviour) {
    const Circuit c = build_c432();
    // Input order: E0..E8, A0..A8, B0..B8, C0..C8.
    gatesim::Vector v(36, false);
    const auto set = [&](int base, int i) { v[base + i] = true; };
    // Enable channel 4, request it on bus B only -> PB, not PA/PC;
    // CHAN encodes index+1 = 5 = 0b0101.
    set(0, 4);
    set(18, 4);
    auto out = gatesim::simulate(c, v);
    const auto po = [&](const char* name) { return out[c.find(name)]; };
    EXPECT_FALSE(po("PA"));
    EXPECT_TRUE(po("PB"));
    EXPECT_FALSE(po("PC"));
    EXPECT_FALSE(po("CHAN3"));
    EXPECT_TRUE(po("CHAN2"));
    EXPECT_FALSE(po("CHAN1"));
    EXPECT_TRUE(po("CHAN0"));

    // Add a request on bus A, channel 7: A wins (priority A > B).
    set(0, 7);
    set(9, 7);
    out = gatesim::simulate(c, v);
    EXPECT_TRUE(out[c.find("PA")]);
    EXPECT_FALSE(out[c.find("PB")]);
    // CHAN = 7 + 1 = 0b1000.
    EXPECT_TRUE(out[c.find("CHAN3")]);
    EXPECT_FALSE(out[c.find("CHAN2")]);
    EXPECT_FALSE(out[c.find("CHAN1")]);
    EXPECT_FALSE(out[c.find("CHAN0")]);
}

TEST(Builders, C432DisabledChannelIgnored) {
    const Circuit c = build_c432();
    gatesim::Vector v(36, false);
    v[9 + 3] = true;  // A3 requested but E3 disabled
    const auto out = gatesim::simulate(c, v);
    EXPECT_FALSE(out[c.find("PA")]);
}

TEST(Builders, RippleAdderAddsExhaustively) {
    const int bits = 4;
    const Circuit c = build_ripple_adder(bits);
    EXPECT_TRUE(c.validate().empty());
    for (int a = 0; a < 16; ++a)
        for (int b = 0; b < 16; ++b)
            for (int cin = 0; cin < 2; ++cin) {
                gatesim::Vector v;
                for (int i = 0; i < bits; ++i) v.push_back((a >> i) & 1);
                for (int i = 0; i < bits; ++i) v.push_back((b >> i) & 1);
                v.push_back(cin);
                const auto net = gatesim::simulate(c, v);
                int sum = 0;
                for (int i = 0; i < bits; ++i)
                    sum |= net[c.outputs()[static_cast<size_t>(i)]] << i;
                sum |= net[c.outputs()[static_cast<size_t>(bits)]] << bits;
                EXPECT_EQ(sum, a + b + cin) << a << "+" << b << "+" << cin;
            }
}

TEST(Builders, ParityTreeComputesParity) {
    const Circuit c = build_parity_tree(9);
    gatesim::RandomPatternGenerator rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const auto v = rng.next_vector(c);
        bool parity = false;
        for (bool b : v) parity ^= b;
        const auto out = gatesim::simulate(c, v);
        EXPECT_EQ(out[c.outputs()[0]], parity);
    }
}

TEST(Builders, MuxSelectsEveryInput) {
    const Circuit c = build_mux_tree(3);
    for (int sel = 0; sel < 8; ++sel)
        for (int val = 0; val < 2; ++val) {
            gatesim::Vector v(c.inputs().size(), false);
            v[static_cast<size_t>(sel)] = val;
            for (int s = 0; s < 3; ++s)
                v[8 + static_cast<size_t>(s)] = (sel >> s) & 1;
            const auto out = gatesim::simulate(c, v);
            EXPECT_EQ(out[c.outputs()[0]], val == 1);
        }
}

TEST(Builders, DecoderOneHot) {
    const Circuit c = build_decoder(3);
    for (int addr = 0; addr < 8; ++addr) {
        gatesim::Vector v(4, false);
        for (int b = 0; b < 3; ++b) v[static_cast<size_t>(b)] = (addr >> b) & 1;
        v[3] = true;  // EN
        const auto out = gatesim::simulate(c, v);
        for (int o = 0; o < 8; ++o)
            EXPECT_EQ(out[c.outputs()[static_cast<size_t>(o)]], o == addr);
    }
    // Disabled: all outputs low.
    const auto out = gatesim::simulate(c, gatesim::Vector(4, false));
    for (int o = 0; o < 8; ++o)
        EXPECT_FALSE(out[c.outputs()[static_cast<size_t>(o)]]);
}

TEST(Builders, AluComputesAllOpsExhaustively) {
    const int bits = 4;
    const Circuit c = build_alu(bits);
    EXPECT_TRUE(c.validate().empty());
    for (int a = 0; a < 16; ++a)
        for (int b = 0; b < 16; ++b)
            for (int op = 0; op < 4; ++op) {
                gatesim::Vector v;
                for (int i = 0; i < bits; ++i) v.push_back((a >> i) & 1);
                for (int i = 0; i < bits; ++i) v.push_back((b >> i) & 1);
                v.push_back(false);     // CIN
                v.push_back(op & 1);    // OP0
                v.push_back(op >> 1);   // OP1
                const auto net = gatesim::simulate(c, v);
                int r = 0;
                for (int i = 0; i < bits; ++i)
                    r |= net[c.outputs()[static_cast<size_t>(i)]] << i;
                int expect = 0;
                switch (op) {
                    case 0: expect = (a + b) & 15; break;
                    case 1: expect = a & b; break;
                    case 2: expect = a | b; break;
                    case 3: expect = a ^ b; break;
                }
                ASSERT_EQ(r, expect) << a << " op" << op << " " << b;
                // Z flag.
                EXPECT_EQ(net[c.find("Z")], expect == 0);
                if (op == 0) {
                    EXPECT_EQ(net[c.find("COUT")], (a + b) > 15);
                }
            }
}

TEST(Builders, HammingCorrectsAnySingleError) {
    const int data_bits = 11;  // p = 4
    const Circuit c = build_hamming_corrector(data_bits);
    EXPECT_TRUE(c.validate().empty());
    gatesim::RandomPatternGenerator rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        // Random data word; compute the correct parity by encoding.
        std::uint64_t word = rng.next_word() & ((1u << data_bits) - 1);
        // Positions 1..15, data at non-powers-of-two.
        std::vector<int> data_pos;
        for (int pos = 1; pos < 16 &&
                          static_cast<int>(data_pos.size()) < data_bits; ++pos)
            if ((pos & (pos - 1)) != 0) data_pos.push_back(pos);
        int par = 0;
        for (int i = 0; i < data_bits; ++i)
            if ((word >> i) & 1) par ^= data_pos[static_cast<size_t>(i)];

        const auto run = [&](std::uint64_t d, int pbits) {
            gatesim::Vector v;
            for (int i = 0; i < data_bits; ++i) v.push_back((d >> i) & 1);
            for (int j = 0; j < 4; ++j) v.push_back((pbits >> j) & 1);
            const auto net = gatesim::simulate(c, v);
            std::uint64_t out = 0;
            for (int i = 0; i < data_bits; ++i)
                out |= static_cast<std::uint64_t>(
                           net[c.outputs()[static_cast<size_t>(i)]])
                       << i;
            return out;
        };

        // Clean word passes through.
        ASSERT_EQ(run(word, par), word);
        // Any single data-bit error is corrected.
        for (int i = 0; i < data_bits; ++i)
            ASSERT_EQ(run(word ^ (1ULL << i), par), word) << "bit " << i;
        // A parity-bit error leaves data untouched.
        for (int j = 0; j < 4; ++j)
            ASSERT_EQ(run(word, par ^ (1 << j)), word) << "parity " << j;
    }
}

TEST(Builders, RandomCircuitIsValidAndDeterministic) {
    const Circuit a = build_random_circuit(16, 120, 42);
    const Circuit b = build_random_circuit(16, 120, 42);
    EXPECT_TRUE(a.validate().empty());
    EXPECT_EQ(to_bench(a), to_bench(b));
    const Circuit c = build_random_circuit(16, 120, 43);
    EXPECT_NE(to_bench(a), to_bench(c));
}

// Techmap equivalence: exhaustive or sampled input sweep.
void expect_equivalent(const Circuit& a, const Circuit& b, int samples) {
    ASSERT_EQ(a.inputs().size(), b.inputs().size());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    gatesim::RandomPatternGenerator rng(99);
    for (int i = 0; i < samples; ++i) {
        const auto v = rng.next_vector(a);
        const auto va = gatesim::simulate(a, v);
        const auto vb = gatesim::simulate(b, v);
        for (size_t o = 0; o < a.outputs().size(); ++o)
            ASSERT_EQ(va[a.outputs()[o]], vb[b.outputs()[o]])
                << "output " << o << " sample " << i;
    }
}

class TechmapEquivalence
    : public ::testing::TestWithParam<std::function<Circuit()>> {};

TEST_P(TechmapEquivalence, PreservesFunction) {
    const Circuit original = GetParam()();
    const Circuit mapped = techmap(original);
    EXPECT_TRUE(mapped.validate().empty());
    expect_equivalent(original, mapped, 200);
    // Every mapped gate must fit the library's arity bound and have no XOR.
    for (const Gate& g : mapped.gates()) {
        EXPECT_LE(g.fanin.size(), 4u);
        EXPECT_NE(g.type, GateType::Xor);
        EXPECT_NE(g.type, GateType::Xnor);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, TechmapEquivalence,
    ::testing::Values([] { return build_c17(); }, [] { return build_c432(); },
                      [] { return build_ripple_adder(6); },
                      [] { return build_parity_tree(12); },
                      [] { return build_mux_tree(3); },
                      [] { return build_decoder(4); },
                      [] { return build_alu(6); },
                      [] { return build_hamming_corrector(11); },
                      [] { return build_random_circuit(12, 80, 5); }));

TEST(Techmap, WideGatesDecomposed) {
    Circuit c("wide");
    std::vector<NetId> ins;
    for (int i = 0; i < 11; ++i)
        ins.push_back(c.add_input("i" + std::to_string(i)));
    const NetId n = c.add_gate(GateType::Nand, "n", ins);
    const NetId o = c.add_gate(GateType::Nor, "o", ins);
    const NetId x = c.add_gate(GateType::Xor, "x", ins);
    c.mark_output(n);
    c.mark_output(o);
    c.mark_output(x);
    const Circuit m = techmap(c);
    expect_equivalent(c, m, 300);
}

// --- write_bench round-trip + the committed golden fixture --------------

/// to_bench text minus the leading "# <name>" comment: the circuit name
/// comes from the file stem on load, so round-trip comparisons ignore it.
std::string bench_body(const Circuit& c) {
    const std::string text = to_bench(c);
    return text.substr(text.find('\n') + 1);
}

TEST(BenchWriter, C432RoundTripsThroughDisk) {
    const Circuit c = build_c432();
    const std::string path =
        testing::TempDir() + "/dlproj_c432_roundtrip.bench";
    write_bench(c, path);
    const Circuit back = load_bench_file(path);
    // Structure survives byte-exactly (to_bench is canonical)...
    EXPECT_EQ(bench_body(back), bench_body(c));
    EXPECT_EQ(back.gate_count(), c.gate_count());
    EXPECT_EQ(back.inputs().size(), c.inputs().size());
    EXPECT_EQ(back.outputs().size(), c.outputs().size());
    // ...and so does behaviour under re-simulation.
    expect_equivalent(c, back, 200);
}

TEST(BenchWriter, GoldenC432FixtureMatchesBuilder) {
    // data/c432.bench is the committed output of
    // write_bench(build_c432()); a drift in either the builder or the
    // writer shows up as a diff against the golden file.
    const Circuit golden =
        load_bench_file(std::string(DLPROJ_DATA_DIR) + "/c432.bench");
    const Circuit built = build_c432();
    EXPECT_EQ(to_bench(golden), to_bench(built));
    expect_equivalent(golden, built, 200);
}

TEST(BenchWriter, ReportsUnwritablePath) {
    EXPECT_THROW(write_bench(build_c17(), "/nonexistent-dir/x.bench"),
                 std::runtime_error);
}

}  // namespace
}  // namespace dlp::netlist
