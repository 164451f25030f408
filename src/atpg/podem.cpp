#include "atpg/podem.h"

#include <algorithm>
#include <stdexcept>

namespace dlp::atpg {

using netlist::GateType;

V3 v3_from_bool(bool b) { return b ? V3::One : V3::Zero; }

namespace {

V3 v3_not(V3 v) {
    if (v == V3::X) return V3::X;
    return v == V3::Zero ? V3::One : V3::Zero;
}

// A net's state is one byte holding both machines dual-rail: bits 0-1 are
// the good value, bits 2-3 the faulty one, each a V3 (bit 0 of a rail
// "is 0", bit 1 "is 1", neither X).
constexpr unsigned kZeros = 0x5;  // the "is 0" bit of both rails
constexpr unsigned kOnes = 0xA;   // the "is 1" bit of both rails
constexpr unsigned kGood = 0x3;   // the good rail

constexpr unsigned both(V3 v) { return static_cast<unsigned>(v) * 5; }
constexpr unsigned swap_rails(unsigned p) {
    return ((p & kZeros) << 1) | ((p & kOnes) >> 1);
}

bool inverts(GateType type) {
    return type == GateType::Not || type == GateType::Nand ||
           type == GateType::Nor || type == GateType::Xnor;
}

/// Ternary evaluation of a logic gate (not an Input) in both machines at
/// once over the states in `values`.  Pin `forced_pin` (if >= 0) reads
/// `forced_faulty` as its faulty rail: the faulty machine's view of a
/// branch fault.
unsigned eval_pair(GateType type, std::span<const NetId> in,
                   const std::uint8_t* values, int forced_pin,
                   unsigned forced_faulty) {
    const auto read = [&](size_t pin) -> unsigned {
        const unsigned p = values[in[pin]];
        return static_cast<int>(pin) == forced_pin ? (p & kGood) | forced_faulty
                                                   : p;
    };
    unsigned r = kZeros;
    if (type == GateType::Xor || type == GateType::Xnor) {
        // Fold the parity from 0; an X input clears both bits of its rail,
        // and an X rail stays X.
        for (size_t pin = 0; pin < in.size(); ++pin) {
            const unsigned p = read(pin);
            const unsigned same =
                ((r & p) | ((r >> 1) & (p >> 1))) & kZeros;
            const unsigned differ =
                ((r & (p >> 1)) | ((r >> 1) & p)) & kZeros;
            r = same | (differ << 1);
        }
    } else {
        unsigned all = 0xF;
        unsigned any = 0;
        for (size_t pin = 0; pin < in.size(); ++pin) {
            const unsigned p = read(pin);
            all &= p;
            any |= p;
        }
        // AND is 1 iff every input is 1 and 0 iff some input is 0; OR is
        // the dual.  BUF and NOT are one-input ANDs.
        const bool is_or = type == GateType::Or || type == GateType::Nor;
        r = is_or ? (any & kOnes) | (all & kZeros)
                  : (all & kOnes) | (any & kZeros);
    }
    return inverts(type) ? swap_rails(r) : r;
}

/// Controlling input value of a gate type, if it has one.
std::optional<V3> controlling_value(GateType type) {
    switch (type) {
        case GateType::And:
        case GateType::Nand:
            return V3::Zero;
        case GateType::Or:
        case GateType::Nor:
            return V3::One;
        default:
            return std::nullopt;
    }
}

constexpr size_t kNoPi = static_cast<size_t>(-1);

}  // namespace

Podem::Podem(const Circuit& circuit, Testability testability)
    : circuit_(circuit), testability_(std::move(testability)) {
    const size_t n = circuit_.gate_count();
    const auto levels = circuit_.levels();
    type_.resize(n);
    level_.resize(n);
    is_po_.resize(n);
    fanin_start_.reserve(n + 1);
    fanin_start_.push_back(0);
    fanout_start_.assign(n + 1, 0);
    for (NetId g = 0; g < n; ++g) {
        const auto& gate = circuit_.gate(g);
        type_[g] = gate.type;
        level_[g] = static_cast<std::uint32_t>(levels[g]);
        is_po_[g] = circuit_.is_output(g) ? 1 : 0;
        fanin_.insert(fanin_.end(), gate.fanin.begin(), gate.fanin.end());
        fanin_start_.push_back(static_cast<std::uint32_t>(fanin_.size()));
        for (NetId f : gate.fanin) ++fanout_start_[f + 1];
    }
    for (size_t g = 0; g < n; ++g) fanout_start_[g + 1] += fanout_start_[g];
    fanout_.resize(fanin_.size());
    std::vector<std::uint32_t> fill(fanout_start_.begin(),
                                    fanout_start_.end() - 1);
    for (NetId g = 0; g < n; ++g)
        for (NetId f : fanin(g)) fanout_[fill[f]++] = g;

    pi_index_of_net_.assign(n, kNoPi);
    for (size_t i = 0; i < circuit_.inputs().size(); ++i)
        pi_index_of_net_[circuit_.inputs()[i]] = i;
    state_.assign(n, 0);
    in_d_list_.assign(n, 0);
    queued_.assign(n, 0);
    visit_mark_.assign(n, 0);
    // A net is queued at most once, so level lv needs exactly as many
    // queue slots as it has nets.
    const std::uint32_t depth =
        n == 0 ? 0 : *std::max_element(level_.begin(), level_.end()) + 1;
    level_start_.assign(depth + 1, 0);
    for (NetId g = 0; g < n; ++g) ++level_start_[level_[g] + 1];
    for (std::uint32_t lv = 0; lv < depth; ++lv)
        level_start_[lv + 1] += level_start_[lv];
    level_end_.assign(level_start_.begin(), level_start_.end() - 1);
    queue_.resize(n);
}

V3 Podem::good(NetId g) const { return static_cast<V3>(state_[g] & kGood); }

bool Podem::is_x(NetId g) const {
    const unsigned p = state_[g];
    return (p & kGood) == 0 || (p >> 2) == 0;
}

bool Podem::is_d(unsigned state) { return state == 0x6 || state == 0x9; }

void Podem::schedule(NetId g) {
    if (queued_[g]) return;
    queued_[g] = 1;
    const std::uint32_t lv = level_[g];
    queue_[level_end_[lv]++] = g;
    lo_ = std::min(lo_, lv);
    hi_ = std::max(hi_, lv);
}

void Podem::imply(PodemResult& result) {
    // Levels strictly increase along every edge, so a level's slice of the
    // queue is complete once the levels below it are done; hi grows as
    // fanout lands above it.  The loop reads the members through local
    // copies: its byte stores may alias any member, which would otherwise
    // force a reload after each one.
    std::uint8_t* const state = state_.data();
    std::uint8_t* const queued = queued_.data();
    NetId* const queue = queue_.data();
    std::uint32_t* const level_end = level_end_.data();
    const std::uint32_t* const level_start = level_start_.data();
    const std::uint32_t* const level = level_.data();
    const GateType* const type = type_.data();
    const std::uint32_t* const fanin_start = fanin_start_.data();
    const NetId* const fanin = fanin_.data();
    const std::uint32_t* const fanout_start = fanout_start_.data();
    const NetId* const fanout = fanout_.data();
    const V3* const pi = pi_.data();
    const size_t* const pi_index = pi_index_of_net_.data();
    const NetId stem = stem_;
    const NetId reader = fault_.reader;
    const int pin = fault_.pin;
    const unsigned stuck = stuck_rail_;
    // Outside the fault's forward cone every input agrees in both
    // machines, so the faulty rail comes out equal to the good one for
    // free; the fault only enters at its stem or at its reader's pin.
    const auto evaluate = [&](NetId g) {
        const unsigned p =
            type[g] == GateType::Input
                ? both(pi[pi_index[g]])
                : eval_pair(type[g],
                            {fanin + fanin_start[g],
                             fanin + fanin_start[g + 1]},
                            state, g == reader ? pin : -1, stuck);
        return g == stem ? (p & kGood) | stuck : p;
    };

    std::uint32_t hi = hi_;
    std::int64_t evals = 0;
    for (std::uint32_t lv = lo_; lv <= hi; ++lv) {
        const std::uint32_t end = level_end[lv];
        evals += end - level_start[lv];
        for (std::uint32_t slot = level_start[lv]; slot < end; ++slot) {
            const NetId g = queue[slot];
            queued[g] = 0;
            const unsigned now = evaluate(g);
            const unsigned was = state[g];
            if (now == was) continue;
            trail_.emplace_back(g, static_cast<std::uint8_t>(was));
            state[g] = static_cast<std::uint8_t>(now);
            if (is_d(now) && !in_d_list_[g]) {
                in_d_list_[g] = 1;
                d_nets_.push_back(g);
            }
            if (is_po_[g] && is_d(now) != is_d(was))
                d_outputs_ += is_d(now) ? 1 : -1;
            for (std::uint32_t e = fanout_start[g]; e < fanout_start[g + 1];
                 ++e) {
                const NetId r = fanout[e];
                if (queued[r]) continue;
                queued[r] = 1;
                queue[level_end[level[r]]++] = r;
                hi = std::max(hi, level[r]);
            }
        }
        level_end[lv] = level_start[lv];
    }
    lo_ = UINT32_MAX;
    hi_ = 0;
    result.gate_evals += evals;
    ++result.implications;
}

void Podem::undo_to(size_t mark) {
    // Newest first, so each net ends at its state from before the mark.
    // Nothing else needs restoring (docs/ENGINES.md, "PODEM implication"):
    // every state past the mark refines the mark's, so a net that was
    // D/D' there never changed and never left d_nets_, and no PO showed
    // D/D' there or at the backtrack, so d_outputs_ is 0 in both.
    for (size_t i = trail_.size(); i-- > mark;)
        state_[trail_[i].first] = trail_[i].second;
    trail_.resize(mark);
}

bool Podem::x_path_exists() {
    // A fault effect can still reach a PO if some net carrying D/D' (or the
    // yet-unexcited site) has a forward path of X-composite or D nets to a
    // PO.  Depth-first from those sources, all of which lie in the fault's
    // forward cone, as does everything reachable from them.
    if (++visit_epoch_ == 0) {
        std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
        visit_epoch_ = 1;
    }
    stack_.clear();
    const auto push = [&](NetId g) {
        if (visit_mark_[g] == visit_epoch_) return;
        visit_mark_[g] = visit_epoch_;
        stack_.push_back(g);
    };
    size_t kept = 0;
    for (NetId g : d_nets_) {
        if (!is_d(state_[g])) {
            in_d_list_[g] = 0;
            continue;
        }
        d_nets_[kept++] = g;
        push(g);
    }
    d_nets_.resize(kept);
    if (good(fault_.net) == V3::X) push(fault_.net);
    // A branch fault's effect lives on the reader's pin, invisible in net
    // values: seed the reader's output optimistically while it is still X.
    if (!fault_.is_stem() && is_x(fault_.reader)) push(fault_.reader);

    while (!stack_.empty()) {
        const NetId g = stack_.back();
        stack_.pop_back();
        if (is_po_[g]) return true;
        for (NetId reader : fanout(g))
            if (is_x(reader) || is_d(state_[reader])) push(reader);
    }
    return false;
}

std::optional<std::pair<NetId, V3>> Podem::objective() const {
    // 1. Excite the fault.
    if (good(fault_.net) == V3::X)
        return std::pair{fault_.net, v3_from_bool(!fault_.stuck_value)};

    // 2. Propagate: pick the lowest-numbered D-frontier gate (an input
    //    carries D/D', output is still X in one of the circuits) that has
    //    an X input.  Every such gate reads a D net, so only the fanout of
    //    d_nets_ needs looking at.
    NetId gate = netlist::kNoNet;
    NetId input = netlist::kNoNet;
    const auto consider = [&](NetId g) {
        if (g >= gate || !is_x(g)) return;
        for (NetId f : fanin(g))
            if (good(f) == V3::X) {
                gate = g;
                input = f;
                return;
            }
    };
    for (NetId d : d_nets_)
        if (is_d(state_[d]))
            for (NetId reader : fanout(d)) consider(reader);
    // An excited branch fault makes its reader a D-frontier gate even
    // though the driving net agrees in both circuits.
    if (!fault_.is_stem()) consider(fault_.reader);
    if (gate == netlist::kNoNet) return std::nullopt;

    // Set an X side input to the non-controlling value (for XOR any
    // binary value propagates; use the cheaper 0/1).
    if (const auto ctrl = controlling_value(type_[gate]))
        return std::pair{input, v3_not(*ctrl)};
    const bool zero_cheaper =
        testability_.cc0[input] <= testability_.cc1[input];
    return std::pair{input, zero_cheaper ? V3::Zero : V3::One};
}

std::pair<size_t, V3> Podem::backtrace(NetId net, V3 value) const {
    while (pi_index_of_net_[net] == kNoPi) {
        const GateType type = type_[net];
        const auto in = fanin(net);
        const V3 needed = inverts(type) ? v3_not(value) : value;
        const auto ctrl = controlling_value(type);

        NetId chosen = netlist::kNoNet;
        if (type == GateType::Buf || type == GateType::Not) {
            chosen = in[0];
        } else if (ctrl && needed == *ctrl) {
            // One controlling input suffices: pick the easiest X input.
            int best_cost = 0;
            for (NetId f : in) {
                if (good(f) != V3::X) continue;
                const int cost = needed == V3::Zero ? testability_.cc0[f]
                                                    : testability_.cc1[f];
                if (chosen == netlist::kNoNet || cost < best_cost) {
                    chosen = f;
                    best_cost = cost;
                }
            }
        } else {
            // All inputs must be non-controlling: pick the hardest X input
            // first so infeasible objectives fail fast.
            int best_cost = 0;
            for (NetId f : in) {
                if (good(f) != V3::X) continue;
                const int cost = needed == V3::Zero ? testability_.cc0[f]
                                                    : testability_.cc1[f];
                if (chosen == netlist::kNoNet || cost > best_cost) {
                    chosen = f;
                    best_cost = cost;
                }
            }
        }
        if (chosen == netlist::kNoNet)
            throw std::logic_error("backtrace from a net with no X input");

        if (type == GateType::Xor || type == GateType::Xnor) {
            // Aim for the parity implied by already-binary side inputs,
            // assuming other X side inputs resolve to 0.
            bool parity = type == GateType::Xnor;
            for (NetId f : in)
                if (f != chosen && good(f) == V3::One) parity ^= true;
            value = v3_from_bool((value == V3::One) ^ parity);
            net = chosen;
            continue;
        }
        value = needed;
        net = chosen;
    }
    return {pi_index_of_net_[net], value};
}

Vector fill_cube(std::span<const V3> cube, std::uint64_t x_fill) {
    Vector v(cube.size());
    for (size_t i = 0; i < cube.size(); ++i)
        v[i] = cube[i] == V3::X ? ((x_fill >> (i % 64)) & 1ULL) != 0
                                : cube[i] == V3::One;
    return v;
}

PodemResult Podem::generate(const StuckAtFault& fault, int backtrack_limit,
                            std::uint64_t x_fill,
                            const support::RunBudget* budget) {
    const size_t pi_count = circuit_.inputs().size();
    PodemResult result;

    // Reset to the all-X assignment.  With every PI at X every good value
    // is X, and so is every faulty value except where the fault injects a
    // constant: settle from the fault site alone.  The queue is empty:
    // every schedule() is followed by an imply(), and a backtrack resets
    // the popped PIs from the trail without queueing them.
    for (NetId g : d_nets_) in_d_list_[g] = 0;
    d_nets_.clear();
    d_outputs_ = 0;
    std::fill(state_.begin(), state_.end(), 0);
    pi_.assign(pi_count, V3::X);
    fault_ = fault;
    stem_ = fault.is_stem() ? fault.net : netlist::kNoNet;
    stuck_rail_ = static_cast<unsigned>(v3_from_bool(fault.stuck_value)) << 2;
    schedule(fault.net);
    if (!fault.is_stem()) schedule(fault.reader);
    imply(result);
    trail_.clear();
    struct Frame {
        size_t pi;
        V3 first;
        bool tried_both;
        size_t mark;  // trail length before the decision
    };
    std::vector<Frame> stack;

    while (true) {
        if (d_outputs_ > 0) {  // a PO shows D/D': detected
            result.status = PodemResult::Status::TestFound;
            result.cube = pi_;
            result.test = fill_cube(result.cube, x_fill);
            return result;
        }

        const V3 site = good(fault.net);
        const bool excitation_impossible =
            site != V3::X && site == v3_from_bool(fault.stuck_value);
        bool dead = excitation_impossible || !x_path_exists();
        std::optional<std::pair<NetId, V3>> obj;
        if (!dead) {
            obj = objective();
            dead = !obj.has_value();
        }

        if (!dead) {
            const auto [pi, v] = backtrace(obj->first, obj->second);
            stack.push_back({pi, v, false, trail_.size()});
            pi_[pi] = v;
            schedule(circuit_.inputs()[pi]);
            imply(result);
            continue;
        }

        // Backtrack: flip the most recent single-tried decision.
        while (!stack.empty() && stack.back().tried_both) {
            pi_[stack.back().pi] = V3::X;
            stack.pop_back();
        }
        if (stack.empty()) {
            result.status = PodemResult::Status::Redundant;
            return result;
        }
        ++result.backtracks;
        if (result.backtracks > backtrack_limit) {
            result.status = PodemResult::Status::Aborted;
            return result;
        }
        // Budget check at the backtrack boundary: the search stops between
        // decisions, never mid-implication.
        if (budget) {
            const support::StopReason stop = budget->check();
            if (stop != support::StopReason::None) {
                result.status = PodemResult::Status::Aborted;
                result.stop = stop;
                return result;
            }
        }
        // Back to the state from before the flipped decision, then imply
        // its other value from there.
        Frame& top = stack.back();
        undo_to(top.mark);
        top.tried_both = true;
        pi_[top.pi] = v3_not(top.first);
        schedule(circuit_.inputs()[top.pi]);
        imply(result);
    }
}

}  // namespace dlp::atpg
