#include "atpg/compaction.h"

#include <algorithm>

#include "gatesim/levelized.h"

namespace dlp::atpg {

CompactionResult compact_reverse(
    const netlist::Circuit& circuit,
    std::span<const gatesim::StuckAtFault> faults,
    std::span<const gatesim::Vector> vectors) {
    CompactionResult result;
    result.original = vectors.size();

    gatesim::LevelizedFaultSimulator sim(
        circuit,
        std::vector<gatesim::StuckAtFault>(faults.begin(), faults.end()));
    std::vector<bool> keep(vectors.size(), false);
    for (size_t i = vectors.size(); i-- > 0;) {
        const gatesim::Vector& v = vectors[i];
        const int newly = sim.apply(std::span(&v, 1));
        if (newly > 0) keep[i] = true;
    }
    for (size_t i = 0; i < vectors.size(); ++i)
        if (keep[i])
            result.vectors.push_back(vectors[i]);
    result.kept = result.vectors.size();
    return result;
}

}  // namespace dlp::atpg
