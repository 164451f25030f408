#include "atpg/transition_tpg.h"

#include <algorithm>
#include <span>

#include "gatesim/logic_sim.h"
#include "gatesim/patterns.h"

namespace dlp::atpg {

using gatesim::TransitionFault;
using gatesim::TransitionFaultSimulator;
using gatesim::Vector;

TransitionTestResult generate_transition_tests(
    const netlist::Circuit& circuit,
    std::vector<gatesim::TransitionFault> faults,
    const TransitionTestOptions& options) {
    TransitionTestResult result;
    TransitionFaultSimulator sim(circuit, std::move(faults));
    gatesim::RandomPatternGenerator rng(options.seed);

    // Phase 1: random vectors; consecutive vectors form the pairs.  It
    // ends after the block that completes coverage.
    int barren = 0;
    std::size_t covered = 0;
    while (result.random_count < options.max_random &&
           barren < options.stale_blocks && covered < sim.faults().size()) {
        const int take = std::min(options.random_block,
                                  options.max_random - result.random_count);
        const auto block = rng.vectors(circuit, take);
        const int found = sim.apply(block);
        result.vectors.insert(result.vectors.end(), block.begin(),
                              block.end());
        result.random_count += take;
        covered += static_cast<std::size_t>(found);
        barren = found == 0 ? barren + 1 : 0;
    }

    // Phase 2: deterministic pairs via PODEM.
    Podem podem(circuit, compute_testability(circuit));
    const auto justify_v1 = [&](netlist::NetId line, bool init,
                                Vector& out) {
        for (int probe = 0; probe < options.justify_probes; ++probe) {
            Vector candidate = rng.next_vector(circuit);
            const auto vals = gatesim::simulate(circuit, candidate);
            if (vals[line] == init) {
                out = std::move(candidate);
                return true;
            }
        }
        // PODEM fallback: a test for the line stuck-at-(!init) must set the
        // line to init (excitation); propagation comes along for free.
        const gatesim::StuckAtFault excite{line, netlist::kNoNet, -1, !init};
        const auto res = podem.generate(excite, options.backtrack_limit,
                                        rng.next_word());
        if (res.status != PodemResult::Status::TestFound) return false;
        out = res.test;
        return true;
    };

    for (size_t fi = 0; fi < sim.faults().size(); ++fi) {
        if (sim.first_detected_at()[fi] >= 0) continue;
        const TransitionFault& f = sim.faults()[fi];
        const bool init = !f.slow_to_rise;

        const gatesim::StuckAtFault target{f.line, netlist::kNoNet, -1, init};
        const auto res =
            podem.generate(target, options.backtrack_limit, rng.next_word());
        if (res.status == PodemResult::Status::Redundant) {
            ++result.untestable;
            continue;
        }
        if (res.status == PodemResult::Status::Aborted) {
            ++result.aborted;
            continue;
        }
        Vector v1;
        if (!justify_v1(f.line, init, v1)) {
            // The line cannot even be set to the initial value: the
            // transition can never be launched.
            ++result.untestable;
            continue;
        }
        const Vector pair[2] = {v1, res.test};
        sim.apply(pair);
        result.vectors.push_back(v1);
        result.vectors.push_back(res.test);
        ++result.pair_count;
    }

    size_t detected = 0;
    for (int at : sim.first_detected_at()) detected += at >= 1;
    result.detected = detected;
    result.first_detected_at.assign(sim.first_detected_at().begin(),
                                    sim.first_detected_at().end());
    return result;
}

}  // namespace dlp::atpg
