// Static ternary implication engine over the levelized SoA circuit IR.
//
// close(l) computes the implication closure of a single-line assignment:
// every net value forced by gate semantics when `l` holds in the good
// machine, by worklist fixpoint over local gate rules (forward controlling
// values and full evaluation, plus the classic backward rules — e.g. an
// AND output at 1 forces every input to 1, an AND output at 0 with all
// side inputs at 1 forces the last input to 0).  On top of the fixpoint a
// bounded recursive-learning lite pass (depth 1) case-splits unjustified
// gates on one unknown fanin and keeps the literals common to both
// halves; an all-conflict split proves the assumption contradictory.
//
// Scratch is epoch-stamped (value/stamp arrays, one bump per closure), so
// a closure costs O(work), not O(nets) — the same trick the levelized
// fault simulator uses for per-fault cones.  Every derivation is recorded
// as a proof step (proof.h), so callers can emit machine-checkable
// untestability proofs without re-deriving anything.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/proof.h"
#include "gatesim/levelized.h"

namespace dlp::analysis {

/// Result of one implication closure.  `forced` lists every derived
/// literal (the assumption first, then trail order); `chain` is the
/// machine-checkable derivation of exactly those literals.  On a
/// conflict, `forced` holds the prefix derived before the contradiction
/// and the chain ends with the refuting step.
struct Closure {
    bool conflict = false;
    std::vector<Literal> forced;
    std::vector<ProofStep> chain;
};

class ImplicationEngine {
public:
    struct Options {
        bool learn = true;  ///< enable the recursive-learning lite pass
        int learn_limit = 32;  ///< case splits per closure (depth 1)
    };

    explicit ImplicationEngine(const gatesim::LevelizedCircuit& lc)
        : ImplicationEngine(lc, Options()) {}
    ImplicationEngine(const gatesim::LevelizedCircuit& lc, Options options);

    /// Implication closure of `assumption` into `out`, whose buffers are
    /// reused; deterministic for a fixed circuit and options.
    void close(Literal assumption, Closure& out);

    /// Literals derived across all closures so far (telemetry).
    std::uint64_t implications() const { return implications_; }
    /// Learned literals derived by case splits so far.
    std::uint64_t learned() const { return learned_; }

private:
    bool assigned(NetId n) const { return stamp_[n] == epoch_; }
    bool value(NetId n) const { return val_[n] != 0; }

    /// Records `lit` and queues the affected gates; false on
    /// contradiction with an earlier assignment.
    bool assign_nostep(Literal lit);
    /// Records `lit` (with its derivation step) and queues the affected
    /// gates; returns false on contradiction with an earlier assignment,
    /// appending the Conflict step.
    bool assign(Literal lit, ProofStep step);
    /// Exhaustive local deduction for gate `g`; false on conflict.
    bool propagate_gate(NetId g);
    /// Drains the worklist to fixpoint; false on conflict.
    bool run_fixpoint();
    /// One depth-1 learning round over currently unjustified gates;
    /// returns true if it derived anything new (or found a conflict,
    /// reported through conflict_).
    bool learn_round(int& splits_left);
    /// Assumes `split` = v on top of the current assignment, runs the
    /// fixpoint, records the branch derivation, then retracts everything.
    /// Returns true if the branch ended in a conflict.
    bool run_branch(NetId split, bool v, std::vector<ProofStep>& chain,
                    std::vector<Literal>& derived);
    /// True if `g`'s known output is already implied by its fanins.
    bool justified(NetId g) const;

    const gatesim::LevelizedCircuit& lc_;
    Options options_;

    // Epoch-stamped ternary assignment.
    std::vector<std::uint8_t> val_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t epoch_ = 0;

    std::vector<std::uint64_t> split_stamp_;  ///< gate split this closure

    std::vector<NetId> trail_;  ///< nets in assignment order
    std::vector<NetId> queue_;  ///< gates pending propagation
    std::size_t qhead_ = 0;     ///< next queue_ entry to propagate
    std::vector<ProofStep>* chain_ = nullptr;  ///< current derivation sink
    std::vector<Literal> derived_[2];  ///< a split's branch literals
    bool conflict_ = false;

    std::uint64_t implications_ = 0;
    std::uint64_t learned_ = 0;
};

}  // namespace dlp::analysis
