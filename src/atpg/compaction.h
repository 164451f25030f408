// Static test compaction for stuck-at test sets.
//
// Reverse-order restoration: fault-simulate the sequence in reverse and
// keep only vectors that detect a not-yet-covered fault.  Deterministic
// vectors (each targeting a hard fault) survive; most of the random prefix
// is redundant once the deterministic tail exists.  The classic technique;
// coverage is preserved exactly.
//
// Note: compaction is for *static voltage* stuck-at sets only - it breaks
// the vector adjacency that two-pattern (transition) tests rely on.
#pragma once

#include <span>
#include <vector>

#include "gatesim/faults.h"
#include "gatesim/logic_sim.h"

namespace dlp::atpg {

struct CompactionResult {
    std::vector<gatesim::Vector> vectors;  ///< kept, in original order
    std::size_t original = 0;
    std::size_t kept = 0;
};

CompactionResult compact_reverse(
    const netlist::Circuit& circuit,
    std::span<const gatesim::StuckAtFault> faults,
    std::span<const gatesim::Vector> vectors);

}  // namespace dlp::atpg
