#include "podem_reference.h"

#include <span>
#include <stdexcept>

namespace dlp::atpg::reference {

using netlist::GateType;

namespace {

V3 v3_not(V3 v) {
    if (v == V3::X) return V3::X;
    return v == V3::Zero ? V3::One : V3::Zero;
}

V3 eval3(GateType type, std::span<const V3> in) {
    switch (type) {
        case GateType::Input:
            throw std::logic_error("eval3 on Input");
        case GateType::Buf:
            return in[0];
        case GateType::Not:
            return v3_not(in[0]);
        case GateType::And:
        case GateType::Nand: {
            bool any_x = false;
            for (V3 v : in) {
                if (v == V3::Zero)
                    return type == GateType::And ? V3::Zero : V3::One;
                if (v == V3::X) any_x = true;
            }
            if (any_x) return V3::X;
            return type == GateType::And ? V3::One : V3::Zero;
        }
        case GateType::Or:
        case GateType::Nor: {
            bool any_x = false;
            for (V3 v : in) {
                if (v == V3::One)
                    return type == GateType::Or ? V3::One : V3::Zero;
                if (v == V3::X) any_x = true;
            }
            if (any_x) return V3::X;
            return type == GateType::Or ? V3::Zero : V3::One;
        }
        case GateType::Xor:
        case GateType::Xnor: {
            bool acc = type == GateType::Xnor;
            for (V3 v : in) {
                if (v == V3::X) return V3::X;
                acc ^= (v == V3::One);
            }
            return v3_from_bool(acc);
        }
    }
    throw std::logic_error("unknown gate type");
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

bool inverts(GateType type) {
    return type == GateType::Not || type == GateType::Nand ||
           type == GateType::Nor || type == GateType::Xnor;
}

constexpr size_t kNoPi = static_cast<size_t>(-1);

}  // namespace

ReferencePodem::ReferencePodem(const Circuit& circuit,
                               Testability testability)
    : circuit_(circuit),
      testability_(std::move(testability)),
      fanouts_(circuit.fanouts()) {
    pi_index_of_net_.assign(circuit_.gate_count(), kNoPi);
    for (size_t i = 0; i < circuit_.inputs().size(); ++i)
        pi_index_of_net_[circuit_.inputs()[i]] = i;
}

void ReferencePodem::imply(const StuckAtFault& fault) {
    const size_t n = circuit_.gate_count();
    good_.resize(n);
    faulty_.resize(n);
    std::vector<V3> operands;
    size_t next_pi = 0;
    for (NetId g = 0; g < n; ++g) {
        const auto& gate = circuit_.gate(g);
        if (gate.type == GateType::Input) {
            good_[g] = pi_[next_pi];
            faulty_[g] = pi_[next_pi];
            ++next_pi;
        } else {
            operands.clear();
            for (NetId f : gate.fanin) operands.push_back(good_[f]);
            good_[g] = eval3(gate.type, operands);
            operands.clear();
            for (int pin = 0; pin < static_cast<int>(gate.fanin.size());
                 ++pin) {
                const NetId f = gate.fanin[static_cast<size_t>(pin)];
                V3 v = faulty_[f];
                if (!fault.is_stem() && g == fault.reader && pin == fault.pin)
                    v = v3_from_bool(fault.stuck_value);
                operands.push_back(v);
            }
            faulty_[g] = eval3(gate.type, operands);
        }
        if (fault.is_stem() && g == fault.net)
            faulty_[g] = v3_from_bool(fault.stuck_value);
    }
}

bool ReferencePodem::detected() const {
    for (NetId po : circuit_.outputs())
        if (good_[po] != V3::X && faulty_[po] != V3::X &&
            good_[po] != faulty_[po])
            return true;
    return false;
}

bool ReferencePodem::excitation_impossible(const StuckAtFault& fault) const {
    const V3 site = good_[fault.net];
    return site != V3::X && site == v3_from_bool(fault.stuck_value);
}

bool ReferencePodem::x_path_exists(const StuckAtFault& fault) const {
    // A fault effect can still reach a PO if some net carrying D/D' (or the
    // yet-unexcited site) has a forward path of X-composite nets to a PO.
    const size_t n = circuit_.gate_count();
    std::vector<char> effect(n, 0);
    for (NetId g = 0; g < n; ++g)
        if (good_[g] != V3::X && faulty_[g] != V3::X && good_[g] != faulty_[g])
            effect[g] = 1;
    if (good_[fault.net] == V3::X) effect[fault.net] = 1;
    // A branch fault's effect lives on the reader's pin, invisible in net
    // values: seed the reader's output optimistically while it is still X.
    if (!fault.is_stem() &&
        (good_[fault.reader] == V3::X || faulty_[fault.reader] == V3::X))
        effect[fault.reader] = 1;

    std::vector<char> can_reach(n, 0);  // X-composite net reaching a PO
    for (NetId g = static_cast<NetId>(n); g-- > 0;) {
        const bool is_x = good_[g] == V3::X || faulty_[g] == V3::X;
        if (effect[g] || is_x) {
            bool reach = circuit_.is_output(g) && (effect[g] || is_x);
            if (!reach)
                for (NetId reader : fanouts_[g])
                    if (can_reach[reader]) {
                        reach = true;
                        break;
                    }
            // Only X nets (or effect sources) may extend the path.
            can_reach[g] = reach && (is_x || effect[g]);
        }
    }
    for (NetId g = 0; g < n; ++g)
        if (effect[g] && can_reach[g]) return true;
    return false;
}

std::optional<std::pair<NetId, V3>> ReferencePodem::objective(
    const StuckAtFault& fault) {
    // 1. Excite the fault.
    if (good_[fault.net] == V3::X)
        return std::pair{fault.net, v3_from_bool(!fault.stuck_value)};

    // 2. Propagate: pick a D-frontier gate (an input carries D/D', output
    //    is still X in one of the circuits).
    const size_t n = circuit_.gate_count();
    for (NetId g = 0; g < n; ++g) {
        const auto& gate = circuit_.gate(g);
        if (gate.type == GateType::Input) continue;
        if (good_[g] != V3::X && faulty_[g] != V3::X) continue;
        bool has_effect_input = false;
        for (NetId f : gate.fanin)
            if (good_[f] != V3::X && faulty_[f] != V3::X &&
                good_[f] != faulty_[f]) {
                has_effect_input = true;
                break;
            }
        // An excited branch fault makes its reader a D-frontier gate even
        // though the driving net agrees in both circuits.
        if (!fault.is_stem() && g == fault.reader && good_[fault.net] != V3::X)
            has_effect_input = true;
        if (!has_effect_input) continue;
        // Set an X side input to the non-controlling value (for XOR any
        // binary value propagates; use the cheaper 0/1).
        const auto ctrl = controlling_value(gate.type);
        NetId best = netlist::kNoNet;
        for (NetId f : gate.fanin) {
            if (good_[f] != V3::X) continue;
            if (best == netlist::kNoNet) best = f;
        }
        if (best == netlist::kNoNet) continue;
        if (ctrl)
            return std::pair{best, v3_not(*ctrl)};
        const bool zero_cheaper =
            testability_.cc0[best] <= testability_.cc1[best];
        return std::pair{best, zero_cheaper ? V3::Zero : V3::One};
    }
    return std::nullopt;
}

std::pair<size_t, V3> ReferencePodem::backtrace(NetId net, V3 value) const {
    while (pi_index_of_net_[net] == kNoPi) {
        const auto& gate = circuit_.gate(net);
        const V3 needed = inverts(gate.type) ? v3_not(value) : value;
        const auto ctrl = controlling_value(gate.type);

        NetId chosen = netlist::kNoNet;
        if (gate.type == GateType::Buf || gate.type == GateType::Not) {
            chosen = gate.fanin[0];
        } else if (ctrl && needed == *ctrl) {
            // One controlling input suffices: pick the easiest X input.
            int best_cost = 0;
            for (NetId f : gate.fanin) {
                if (good_[f] != V3::X) continue;
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
            for (NetId f : gate.fanin) {
                if (good_[f] != V3::X) continue;
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

        if (gate.type == GateType::Xor || gate.type == GateType::Xnor) {
            // Aim for the parity implied by already-binary side inputs,
            // assuming other X side inputs resolve to 0.
            bool parity = gate.type == GateType::Xnor;
            for (NetId f : gate.fanin)
                if (f != chosen && good_[f] == V3::One) parity ^= true;
            value = v3_from_bool((value == V3::One) ^ parity);
            net = chosen;
            continue;
        }
        value = needed;
        net = chosen;
    }
    return {pi_index_of_net_[net], value};
}

PodemResult ReferencePodem::generate(const StuckAtFault& fault,
                                     int backtrack_limit,
                                     std::uint64_t x_fill,
                                     const support::RunBudget* budget) {
    const size_t pi_count = circuit_.inputs().size();
    PodemResult result;
    pi_.assign(pi_count, V3::X);
    imply(fault);
    ++result.implications;
    result.gate_evals +=
        static_cast<std::int64_t>(circuit_.gate_count());
    struct Frame {
        size_t pi;
        V3 first;
        bool tried_both;
    };
    std::vector<Frame> stack;

    while (true) {
        if (detected()) {
            result.status = PodemResult::Status::TestFound;
            result.test.resize(pi_count);
            for (size_t i = 0; i < pi_count; ++i)
                result.test[i] = pi_[i] == V3::X
                                     ? ((x_fill >> (i % 64)) & 1ULL) != 0
                                     : pi_[i] == V3::One;
            return result;
        }

        bool dead = excitation_impossible(fault) || !x_path_exists(fault);
        std::optional<std::pair<NetId, V3>> obj;
        if (!dead) {
            obj = objective(fault);
            dead = !obj.has_value();
        }

        if (!dead) {
            const auto [pi, v] = backtrace(obj->first, obj->second);
            stack.push_back({pi, v, false});
            pi_[pi] = v;
            imply(fault);
            ++result.implications;
            result.gate_evals +=
                static_cast<std::int64_t>(circuit_.gate_count());
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
        stack.back().tried_both = true;
        pi_[stack.back().pi] = v3_not(stack.back().first);
        imply(fault);
        ++result.implications;
        result.gate_evals +=
            static_cast<std::int64_t>(circuit_.gate_count());
    }
}

}  // namespace dlp::atpg::reference
