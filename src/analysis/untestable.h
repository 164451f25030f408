// FIRE-style static identification of untestable single stuck-at faults.
//
// For every pivot net p the pass computes the implication closures of
// p = 0 and p = 1 (implication.h) and classifies each fault under each
// assumption: *unexcitable* when the closure forces the fault site to its
// stuck value, *blocked* when every propagation path to a primary output
// is cut by a side input forced to its gate's controlling value outside
// the fault's fanout cone, or vacuous when the closure itself conflicts
// (the assumption is unsatisfiable, i.e. p is a constant line).  A fault
// undetectable under both p = 0 and p = 1 needs a conflicting single-line
// assignment to be detected at all — it is untestable, and the pass emits
// a machine-checkable proof (proof.h).
//
// The cone restriction is what makes the blocking argument sound: a side
// input inside the fault's fanout cone may itself carry a fault effect in
// the faulty machine, so only blockers whose nets cannot differ between
// the two machines count.  The pass runs a cheap cone-oblivious
// observability sweep first (an over-approximation of blocking, hence a
// safe candidate filter) and re-verifies each surviving candidate with
// the exact cone-aware difference propagation — the same computation
// check_proof performs independently.
//
// Parallelism, determinism and interruption: a pivot's closures and
// verdicts depend only on the circuit, so pivots are searched on every
// worker and committed strictly in net-id order, the first proving pivot
// winning a fault (docs/ANALYSIS.md, "Pivots in parallel").  The budget
// is checked at pivot claims only, so a cancelled or deadline-stopped run
// yields proofs that are an exact prefix of the unbounded run's (the
// support/cancel.h contract).  Results do not depend on the worker count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/proof.h"
#include "gatesim/faults.h"
#include "parallel/parallel_for.h"
#include "support/cancel.h"

namespace dlp::analysis {

struct AnalysisOptions {
    /// Enable the bounded recursive-learning lite pass inside each
    /// closure (depth-1 case splits on unjustified gates).
    bool learn = true;
    /// Case splits per closure when learning is on.
    int learn_limit = 32;
    /// Cancel token / deadline, checked at pivot claims.
    support::RunBudget budget;
    /// Worker count (0 = default) for the pivot search; the proofs, the
    /// marks and the stats do not depend on it.
    parallel::ParallelOptions parallel;
};

struct AnalysisStats {
    std::size_t pivots_done = 0;   ///< nets whose closures completed
    std::size_t pivots_total = 0;  ///< = circuit net count
    std::uint64_t implications = 0;  ///< literals derived across closures
    std::uint64_t learned = 0;       ///< of which by case splits
    std::size_t constant_lines = 0;  ///< pivots with a conflicting closure
    std::size_t proofs = 0;          ///< faults proven untestable
};

struct AnalysisResult {
    /// One proof per untestable fault, ordered by proving pivot (first
    /// proving pivot wins when several would prove the same fault).
    std::vector<UntestableProof> proofs;
    /// Parallel to the input fault list: 1 = proven untestable.
    std::vector<std::uint8_t> untestable;
    AnalysisStats stats;
    /// None on completion; Cancelled/DeadlineExpired on an early stop
    /// (proofs then cover exactly stats.pivots_done pivots).
    support::StopReason stop = support::StopReason::None;

    std::size_t untestable_count() const { return stats.proofs; }
};

/// Runs the pass over `faults` (any list — typically the collapsed
/// universe).  Deterministic for fixed circuit/faults/options.
AnalysisResult find_untestable(const netlist::Circuit& circuit,
                               std::span<const gatesim::StuckAtFault> faults,
                               const AnalysisOptions& options = {});

/// The DLPROJ_ANALYSIS kill switch: returns false when the environment
/// variable is set to 0/off/false, true otherwise (mirrors
/// lint::lint_enabled_from_env for DLPROJ_LINT).
bool analysis_enabled_from_env();

}  // namespace dlp::analysis
