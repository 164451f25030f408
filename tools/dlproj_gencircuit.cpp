// dlproj_gencircuit: deterministic synthetic benchmark circuits for the
// fault-sim engine corpus (the committed data/synth_*.bench fixtures and
// ad-hoc scaling experiments).
//
//   dlproj_gencircuit [--inputs=N] [--gates=N] [--seed=S] [--out=PATH]
//
//   --inputs=N   primary inputs (default 64)
//   --gates=N    logic gates (default 2000)
//   --seed=S     generator seed (default 1); same arguments => same netlist
//   --out=PATH   write the .bench netlist to PATH (default: stdout)
//
// The netlist comes from netlist::build_random_circuit (splitmix64-seeded,
// recent-net fanin bias for realistic logic depth); a summary line with the
// gate count, depth, and I/O widths goes to stderr.
#include <climits>
#include <cstring>
#include <iostream>
#include <string>

#include "gatesim/levelized.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"
#include "support/parse.h"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--inputs=N] [--gates=N] [--seed=S] [--out=PATH]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace dlp;

    int inputs = 64;
    int gates = 2000;
    std::uint64_t seed = 1;
    std::string out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* flag) {
            return arg.substr(std::strlen(flag));
        };
        try {
            if (arg.rfind("--inputs=", 0) == 0)
                inputs = static_cast<int>(
                    support::parse_int(value("--inputs="), 2, INT_MAX));
            else if (arg.rfind("--gates=", 0) == 0)
                gates = static_cast<int>(
                    support::parse_int(value("--gates="), 1, INT_MAX));
            else if (arg.rfind("--seed=", 0) == 0)
                seed = static_cast<std::uint64_t>(
                    support::parse_int(value("--seed="), 0, LLONG_MAX));
            else if (arg.rfind("--out=", 0) == 0)
                out = value("--out=");
            else {
                std::cerr << argv[0] << ": unknown option " << arg << "\n";
                return usage(argv[0]);
            }
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": bad value in " << arg << ": "
                      << e.what() << "\n";
            return usage(argv[0]);
        }
    }

    try {
        const netlist::Circuit c =
            netlist::build_random_circuit(inputs, gates, seed);
        const gatesim::LevelizedCircuit lc = gatesim::levelize(c);
        if (out.empty())
            std::cout << netlist::to_bench(c);
        else
            netlist::write_bench(c, out);
        std::cerr << c.name() << ": " << lc.logic_gate_count() << " gates, "
                  << lc.inputs.size() << " inputs, " << lc.outputs.size()
                  << " outputs, depth " << lc.depth << "\n";
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    return 0;
}
