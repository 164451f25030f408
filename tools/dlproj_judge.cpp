// dlproj_judge: golden-corpus digest producer for the cross-engine judge
// harness (scripts/judge.sh, ROADMAP #5).
//
//   dlproj_judge [options] <circuit>
//   dlproj_judge --list-engines
//
//   --engine=NAME     fault-sim engine to run: naive (the oracle) or
//                     levelized (the default); both must produce the same
//                     bytes.  Ignored in --switch mode
//   --vectors=N       random vectors to apply (default 1024); in --switch
//                     mode, the switch-level vector cap instead
//   --seed=N          pattern-generator seed (default 7; --switch mode
//                     uses the flow's ATPG seed default instead)
//   --switch          run the full physical flow (layout -> extraction ->
//                     switch-level fault simulation) and emit the
//                     realistic-fault detection table instead of the
//                     gate-level stuck-at table
//   --list-engines    print the engine names, one per line
//
// <circuit> is a builders.h name (c17, c432, adder3, ...) or a .bench
// path — the same resolver the campaign grid uses.
//
// stdout gets a canonical, deterministic detection table: the collapsed
// fault universe in collapsing order with each fault's first-detecting
// vector index (in --switch mode: the extracted realistic faults with
// their weights and voltage/IDDQ first-detection indices).
// scripts/judge.sh hashes these bytes (SHA-256) and compares them against
// the pinned digests under data/golden/ — any engine drifting from the
// recorded behavior, or any semantic change to parsing/collapsing/
// simulation/extraction, flips the digest.  Wall time goes to stderr so
// timing never perturbs the digest.
#include <chrono>
#include <climits>
#include <cstring>
#include <iostream>
#include <string>

#include "campaign/artifacts.h"
#include "campaign/spec.h"
#include "flow/experiment.h"
#include "gatesim/engine.h"
#include "gatesim/faults.h"
#include "gatesim/patterns.h"
#include "support/parse.h"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--engine=NAME] [--vectors=N] [--seed=N] [--switch]"
                 " <circuit>\n"
                 "       "
              << argv0 << " --list-engines\n";
    return 2;
}

/// The --switch table: extracted realistic faults (extraction order) with
/// bit-exact weights and both detection verdicts.  first/iddq indices are
/// 1-based vector positions, -1 = never detected — the exact semantics of
/// flow::ExperimentResult::first_detected_at.
int judge_switch(const std::string& circuit_name, int vectors) {
    using namespace dlp;
    flow::ExperimentOptions opt;
    opt.budget.max_vectors = vectors;
    const auto start = std::chrono::steady_clock::now();
    const flow::ExperimentResult r = flow::run_experiment(
        campaign::resolve_circuit(circuit_name), opt);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    std::cout << "dlproj-judge-switch 1\n"
              << "circuit " << circuit_name << " gates " << r.mapped_gates
              << " transistors " << r.transistors << "\n"
              << "faults " << r.fault_weights.size() << " vectors "
              << r.vector_count << " cap " << vectors << "\n";
    std::size_t detected = 0;
    for (std::size_t i = 0; i < r.fault_weights.size(); ++i) {
        std::cout << i << " " << campaign::double_hex(r.fault_weights[i])
                  << " " << r.first_detected_at[i] << " "
                  << r.iddq_detected_at[i] << "\n";
        detected += r.first_detected_at[i] >= 1;
    }
    std::cout << "detected " << detected << "/" << r.fault_weights.size()
              << "\n";
    std::cerr << "judge: " << circuit_name << " switch-level "
              << r.fault_weights.size() << " faults " << r.vector_count
              << " vectors in " << seconds << " s\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace dlp;

    std::string engine_name = "levelized";
    int vectors = 1024;
    std::uint64_t seed = 7;
    bool switch_level = false;
    std::string circuit_name;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        try {
            if (arg == "--list-engines") {
                for (const auto name : sim::engine_names())
                    std::cout << name << "\n";
                return 0;
            } else if (arg.rfind("--engine=", 0) == 0) {
                engine_name = arg.substr(std::strlen("--engine="));
            } else if (arg.rfind("--vectors=", 0) == 0) {
                vectors = static_cast<int>(support::parse_int(
                    arg.substr(std::strlen("--vectors=")), 1, INT_MAX));
            } else if (arg.rfind("--seed=", 0) == 0) {
                seed = static_cast<std::uint64_t>(support::parse_int(
                    arg.substr(std::strlen("--seed=")), 0, LLONG_MAX));
            } else if (arg == "--switch") {
                switch_level = true;
            } else if (arg.rfind("--", 0) == 0) {
                std::cerr << argv[0] << ": unknown option " << arg << "\n";
                return usage(argv[0]);
            } else if (circuit_name.empty()) {
                circuit_name = arg;
            } else {
                std::cerr << argv[0] << ": more than one circuit\n";
                return usage(argv[0]);
            }
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": bad value in " << arg << ": "
                      << e.what() << "\n";
            return usage(argv[0]);
        }
    }
    if (circuit_name.empty()) return usage(argv[0]);

    try {
        if (switch_level)
            return judge_switch(circuit_name, vectors);
        const netlist::Circuit circuit =
            campaign::resolve_circuit(circuit_name);
        const auto faults = gatesim::collapse_faults(
            circuit, gatesim::full_fault_universe(circuit));
        gatesim::RandomPatternGenerator rng(seed);
        const auto patterns = rng.vectors(circuit, vectors);

        const sim::Engine& engine = sim::engine(engine_name);
        const auto start = std::chrono::steady_clock::now();
        const auto session = engine.open(circuit, faults);
        session->apply(patterns);
        const auto first = session->first_detected_at();
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();

        std::cout << "dlproj-judge 1\n"
                  << "circuit " << circuit_name << " inputs "
                  << circuit.inputs().size() << " gates "
                  << circuit.gate_count() << "\n"
                  << "faults " << faults.size() << " vectors " << vectors
                  << " seed " << seed << "\n";
        std::size_t detected = 0;
        for (std::size_t i = 0; i < faults.size(); ++i) {
            std::cout << gatesim::fault_name(circuit, faults[i]) << " "
                      << first[i] << "\n";
            detected += first[i] >= 0;
        }
        std::cout << "detected " << detected << "/" << faults.size() << "\n";

        std::cerr << "judge: " << circuit_name << " engine "
                  << engine.name() << " " << faults.size() << " faults "
                  << vectors << " vectors in " << seconds << " s\n";
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    return 0;
}
