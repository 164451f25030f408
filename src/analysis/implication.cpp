#include "analysis/implication.h"

#include <algorithm>

namespace dlp::analysis {

namespace {

using netlist::GateType;

/// Controlling input value for the AND/OR families; -1 for gate types
/// without one (XOR parity, buffers).
int controlling_value(GateType t) {
    switch (t) {
        case GateType::And:
        case GateType::Nand:
            return 0;
        case GateType::Or:
        case GateType::Nor:
            return 1;
        default:
            return -1;
    }
}

/// Output value when some input is at the controlling value.
bool controlled_output(GateType t) {
    return t == GateType::Nand || t == GateType::Or;
}

bool inverting(GateType t) {
    return t == GateType::Not || t == GateType::Nand ||
           t == GateType::Nor || t == GateType::Xnor;
}

}  // namespace

ImplicationEngine::ImplicationEngine(const gatesim::LevelizedCircuit& lc,
                                     Options options)
    : lc_(lc), options_(options) {
    val_.assign(lc_.net_count, 0);
    stamp_.assign(lc_.net_count, 0);
    // Epoch-stamped per-closure "already case-split" marks ride in the
    // high bit-free space of a second stamp array.
    split_stamp_.assign(lc_.net_count, 0);
}

bool ImplicationEngine::assign_nostep(Literal lit) {
    if (assigned(lit.net)) return value(lit.net) == lit.value;
    val_[lit.net] = lit.value ? 1 : 0;
    stamp_[lit.net] = epoch_;
    trail_.push_back(lit.net);
    ++implications_;
    // Affected gates: every reader of the net, plus the net's own gate
    // (backward rules).
    if (lc_.type[lit.net] != GateType::Input) queue_.push_back(lit.net);
    for (std::uint32_t i = lc_.fanout_begin[lit.net];
         i < lc_.fanout_begin[lit.net + 1]; ++i)
        queue_.push_back(lc_.fanout[i]);
    return true;
}

bool ImplicationEngine::assign(Literal lit, ProofStep step) {
    if (assigned(lit.net)) {
        if (value(lit.net) == lit.value) return true;  // redundant
        // The forcing gate's local constraints are unsatisfiable under
        // the pre-existing opposite assignment.
        ProofStep conflict;
        conflict.kind = StepKind::Conflict;
        conflict.gate = step.gate;
        chain_->push_back(std::move(conflict));
        conflict_ = true;
        return false;
    }
    chain_->push_back(std::move(step));
    return assign_nostep(lit);
}

bool ImplicationEngine::propagate_gate(NetId g) {
    const GateType t = lc_.type[g];
    const std::uint32_t fb = lc_.fanin_begin[g];
    const std::uint32_t fe = lc_.fanin_begin[g + 1];
    const auto imply = [&](NetId net, bool v) {
        ProofStep step;
        step.kind = StepKind::Implied;
        step.lit = Literal{net, v};
        step.gate = g;
        return assign(step.lit, std::move(step));
    };

    if (t == GateType::Buf || t == GateType::Not) {
        const NetId in = lc_.fanin[fb];
        const bool inv = inverting(t);
        if (assigned(in) && !assigned(g)) {
            if (!imply(g, value(in) != inv)) return false;
        }
        if (assigned(g) && !assigned(in)) {
            if (!imply(in, value(g) != inv)) return false;
        }
        // Both assigned: consistency was enforced when the second side
        // was set (the forward/backward implication conflicts if not).
        if (assigned(g) && assigned(in) && value(g) != (value(in) != inv))
            return imply(g, value(in) != inv);  // records the conflict
        return true;
    }

    const int c = controlling_value(t);
    if (c >= 0) {
        const bool ctrl = c != 0;
        const bool out_ctrl = controlled_output(t);
        std::size_t unknown = 0;
        NetId last_unknown = netlist::kNoNet;
        bool any_ctrl = false;
        for (std::uint32_t i = fb; i < fe; ++i) {
            const NetId in = lc_.fanin[i];
            if (!assigned(in)) {
                ++unknown;
                last_unknown = in;
            } else if (value(in) == ctrl) {
                any_ctrl = true;
            }
        }
        if (any_ctrl) {
            if (!imply(g, out_ctrl)) return false;
        } else if (unknown == 0) {
            if (!imply(g, !out_ctrl)) return false;
        }
        if (assigned(g)) {
            if (value(g) == !out_ctrl) {
                // All-noncontrolled output: every input is forced away
                // from the controlling value.
                for (std::uint32_t i = fb; i < fe; ++i)
                    if (!assigned(lc_.fanin[i])) {
                        if (!imply(lc_.fanin[i], !ctrl)) return false;
                    }
            } else if (!any_ctrl && unknown == 1) {
                // Controlled output with one candidate left: it must be
                // the controlling one.
                if (!imply(last_unknown, ctrl)) return false;
            }
        }
        return true;
    }

    // XOR/XNOR parity: deducible only with at most one unknown among
    // {inputs, output}.
    std::size_t unknown = 0;
    NetId last_unknown = netlist::kNoNet;
    bool parity = inverting(t);  // fold the XNOR inversion into the parity
    for (std::uint32_t i = fb; i < fe; ++i) {
        const NetId in = lc_.fanin[i];
        if (!assigned(in)) {
            ++unknown;
            last_unknown = in;
        } else if (value(in)) {
            parity = !parity;
        }
    }
    if (unknown == 0) {
        if (!imply(g, parity)) return false;
    } else if (unknown == 1 && assigned(g)) {
        if (!imply(last_unknown, value(g) != parity)) return false;
    }
    return true;
}

bool ImplicationEngine::run_fixpoint() {
    while (qhead_ < queue_.size()) {
        const NetId g = queue_[qhead_++];
        if (!propagate_gate(g)) {
            queue_.clear();
            qhead_ = 0;
            return false;
        }
    }
    queue_.clear();
    qhead_ = 0;
    return true;
}

bool ImplicationEngine::justified(NetId g) const {
    const GateType t = lc_.type[g];
    const std::uint32_t fb = lc_.fanin_begin[g];
    const std::uint32_t fe = lc_.fanin_begin[g + 1];
    if (t == GateType::Buf || t == GateType::Not)
        return true;  // single input: the backward rule always fires
    const int c = controlling_value(t);
    if (c >= 0) {
        if (value(g) != controlled_output(t))
            return true;  // all inputs backward-forced noncontrolling
        const bool ctrl = c != 0;
        for (std::uint32_t i = fb; i < fe; ++i)
            if (assigned(lc_.fanin[i]) && value(lc_.fanin[i]) == ctrl)
                return true;
        return false;
    }
    // Parity gates: justified once every input is known.
    for (std::uint32_t i = fb; i < fe; ++i)
        if (!assigned(lc_.fanin[i])) return false;
    return true;
}

bool ImplicationEngine::learn_round(int& splits_left) {
    bool progress = false;
    // Trail order is deterministic, and the trail may grow as learned
    // literals land; index-based iteration picks the growth up.
    for (std::size_t i = 0; i < trail_.size(); ++i) {
        if (conflict_ || splits_left <= 0) break;
        const NetId g = trail_[i];
        if (lc_.type[g] == GateType::Input) continue;
        if (split_stamp_[g] == epoch_) continue;  // already split here
        if (justified(g)) continue;
        // Split on the first unknown fanin of the unjustified gate.
        NetId split = netlist::kNoNet;
        for (std::uint32_t j = lc_.fanin_begin[g];
             j < lc_.fanin_begin[g + 1]; ++j)
            if (!assigned(lc_.fanin[j])) {
                split = lc_.fanin[j];
                break;
            }
        if (split == netlist::kNoNet) continue;
        split_stamp_[g] = epoch_;
        --splits_left;

        std::vector<ProofStep> chain0;
        std::vector<ProofStep> chain1;
        std::vector<Literal>& derived0 = derived_[0];
        std::vector<Literal>& derived1 = derived_[1];
        derived0.clear();
        derived1.clear();
        const bool conflict0 = run_branch(split, false, chain0, derived0);
        const bool conflict1 = run_branch(split, true, chain1, derived1);

        if (conflict0 && conflict1) {
            // Both halves of an exhaustive split refute: the outer
            // assumption is contradictory.
            ProofStep step;
            step.kind = StepKind::Learned;
            step.split = split;
            step.branch0 = std::move(chain0);
            step.branch1 = std::move(chain1);
            chain_->push_back(std::move(step));
            conflict_ = true;
            return true;
        }

        // One batched step for the whole split: every literal it
        // establishes shares the two branch derivations.  With one half
        // refuted the other half's literals hold, else those both derive.
        ProofStep step;
        step.kind = StepKind::Learned;
        step.split = split;
        const bool both = !conflict0 && !conflict1;
        for (const Literal& l : conflict0 ? derived1 : derived0)
            if (!assigned(l.net) &&
                (!both || std::find(derived1.begin(), derived1.end(), l) !=
                              derived1.end()))
                step.lits.push_back(l);
        if (step.lits.empty()) continue;
        step.branch0 = std::move(chain0);
        step.branch1 = std::move(chain1);
        chain_->push_back(std::move(step));
        // assign_nostep leaves chain_ alone, so the step stays in place.
        for (const Literal& l : chain_->back().lits) {
            ++learned_;
            if (!assign_nostep(l)) {
                conflict_ = true;  // unreachable: branches saw the context
                return true;
            }
        }
        progress = true;
        if (!run_fixpoint()) return true;  // conflict
    }
    return progress;
}

bool ImplicationEngine::run_branch(NetId split, bool v,
                                   std::vector<ProofStep>& chain,
                                   std::vector<Literal>& derived) {
    const std::size_t mark = trail_.size();
    std::vector<ProofStep>* outer_chain = chain_;
    chain_ = &chain;
    ProofStep assume;
    assume.kind = StepKind::Assume;
    assume.lit = Literal{split, v};
    const bool ok = assign(assume.lit, std::move(assume)) && run_fixpoint();
    for (std::size_t i = mark; i < trail_.size(); ++i)
        derived.push_back(Literal{trail_[i], value(trail_[i])});
    // Retract: unstamp everything the branch assigned.  Epochs start at
    // 1, so stamp 0 is never "assigned".
    for (std::size_t i = mark; i < trail_.size(); ++i)
        stamp_[trail_[i]] = 0;
    trail_.resize(mark);
    queue_.clear();
    qhead_ = 0;
    conflict_ = false;
    chain_ = outer_chain;
    return !ok;
}

void ImplicationEngine::close(Literal assumption, Closure& out) {
    ++epoch_;
    trail_.clear();
    queue_.clear();
    qhead_ = 0;
    conflict_ = false;

    out.chain.clear();
    out.forced.clear();
    chain_ = &out.chain;
    ProofStep assume;
    assume.kind = StepKind::Assume;
    assume.lit = assumption;
    if (assign(assumption, std::move(assume))) {
        if (run_fixpoint() && options_.learn) {
            int splits_left = options_.learn_limit;
            while (!conflict_ && splits_left > 0) {
                if (!learn_round(splits_left)) break;
            }
        }
    }
    out.conflict = conflict_;
    for (const NetId n : trail_)
        out.forced.push_back(Literal{n, value(n)});
    chain_ = nullptr;
}

}  // namespace dlp::analysis
