#include "switchsim/switch_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>

namespace dlp::switchsim {

namespace {

/// Resolved value of bridged *driven* (component-less) nodes: a supply
/// always wins; tester-driven inputs resolve wired-AND.
SV resolve_fixed_bridge(std::span<const NodeId> nodes,
                        std::span<const SV> values) {
    for (size_t i = 0; i < nodes.size(); ++i)
        if (nodes[i] == SwitchNetlist::kGnd ||
            nodes[i] == SwitchNetlist::kVdd)
            return values[i];
    SV acc = values[0];
    for (size_t i = 1; i < values.size(); ++i) {
        if (values[i] == acc) continue;
        if (values[i] == SV::X || acc == SV::X) return SV::X;
        acc = SV::Zero;  // wired-AND of differing binary drives
    }
    return acc;
}

/// Endpoint nodes of a bridge fault (two or three).
std::vector<NodeId> bridge_nodes(const SwitchFault& fault) {
    std::vector<NodeId> nodes{fault.a, fault.b};
    if (fault.c >= 0) nodes.push_back(fault.c);
    return nodes;
}

}  // namespace

SwitchSim::SwitchSim(const SwitchNetlist& netlist, SimParams params)
    : netlist_(&netlist), params_(params) {
    const size_t n = static_cast<size_t>(netlist.node_count);
    // Union-find over source/drain edges, excluding the supplies.
    std::vector<std::int32_t> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    const auto find = [&parent](std::int32_t x) {
        while (parent[static_cast<size_t>(x)] != x)
            x = parent[static_cast<size_t>(x)] =
                parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
        return x;
    };
    const auto is_supply = [](NodeId v) {
        return v == SwitchNetlist::kGnd || v == SwitchNetlist::kVdd;
    };
    for (const auto& t : netlist.transistors) {
        if (is_supply(t.source) || is_supply(t.drain)) continue;
        parent[static_cast<size_t>(find(t.source))] = find(t.drain);
    }
    // Nodes that touch a transistor channel belong to a component.
    std::vector<char> in_channel(n, 0);
    for (const auto& t : netlist.transistors) {
        if (!is_supply(t.source)) in_channel[static_cast<size_t>(t.source)] = 1;
        if (!is_supply(t.drain)) in_channel[static_cast<size_t>(t.drain)] = 1;
    }
    component_of_.assign(n, -1);
    std::vector<std::int32_t> comp_id(n, -1);
    for (NodeId v = 0; v < netlist.node_count; ++v) {
        if (!in_channel[static_cast<size_t>(v)]) continue;
        const std::int32_t root = find(v);
        if (comp_id[static_cast<size_t>(root)] < 0) {
            comp_id[static_cast<size_t>(root)] = component_count_++;
            comp_nodes_.emplace_back();
        }
        component_of_[static_cast<size_t>(v)] = comp_id[static_cast<size_t>(root)];
        comp_nodes_[static_cast<size_t>(comp_id[static_cast<size_t>(root)])]
            .push_back(v);
    }
    comp_transistors_.assign(static_cast<size_t>(component_count_), {});
    for (size_t t = 0; t < netlist.transistors.size(); ++t) {
        const auto& tr = netlist.transistors[t];
        const NodeId probe = is_supply(tr.source) ? tr.drain : tr.source;
        const std::int32_t c = component_of_[static_cast<size_t>(probe)];
        if (c >= 0)
            comp_transistors_[static_cast<size_t>(c)].push_back(
                static_cast<int>(t));
    }
    gate_deps_.assign(n, {});
    for (size_t t = 0; t < netlist.transistors.size(); ++t) {
        const auto& tr = netlist.transistors[t];
        const NodeId probe = is_supply(tr.source) ? tr.drain : tr.source;
        const std::int32_t c = component_of_[static_cast<size_t>(probe)];
        if (c < 0) continue;
        auto& deps = gate_deps_[static_cast<size_t>(tr.gate)];
        if (std::find(deps.begin(), deps.end(), c) == deps.end())
            deps.push_back(c);
    }
    level_components();
    compile_tables();
}

void SwitchSim::level_components() {
    const size_t nc = static_cast<size_t>(component_count_);
    // CCC dependency graph: c -> r when a node of c gates a transistor of r.
    readers_.assign(nc, {});
    for (size_t c = 0; c < nc; ++c) {
        auto& rs = readers_[c];
        for (NodeId v : comp_nodes_[c])
            for (std::int32_t r : gate_deps_[static_cast<size_t>(v)])
                rs.push_back(r);
        std::sort(rs.begin(), rs.end());
        rs.erase(std::unique(rs.begin(), rs.end()), rs.end());
    }

    // Longest-path levels (Kahn).  Components Kahn never releases lie on
    // or below a fault-free cycle; they take the level past the deepest
    // ordered one.
    std::vector<int> indegree(nc, 0);
    for (const auto& rs : readers_)
        for (std::int32_t r : rs) ++indegree[static_cast<size_t>(r)];
    level_.assign(nc, 0);
    order_.clear();
    order_.reserve(nc);
    for (size_t c = 0; c < nc; ++c)
        if (indegree[c] == 0) order_.push_back(static_cast<std::int32_t>(c));
    for (size_t i = 0; i < order_.size(); ++i) {
        const std::int32_t c = order_[i];
        for (std::int32_t r : readers_[static_cast<size_t>(c)]) {
            level_[static_cast<size_t>(r)] =
                std::max(level_[static_cast<size_t>(r)],
                         level_[static_cast<size_t>(c)] + 1);
            if (--indegree[static_cast<size_t>(r)] == 0) order_.push_back(r);
        }
    }
    tail_begin_ = order_.size();
    depth_ = nc == 0 ? 1 : 1 + *std::max_element(level_.begin(), level_.end());
    if (tail_begin_ < nc) {
        for (size_t c = 0; c < nc; ++c)
            if (indegree[c] > 0) {
                level_[c] = depth_;
                order_.push_back(static_cast<std::int32_t>(c));
            }
        ++depth_;
    }
}

void SwitchSim::compile_tables() {
    compiled_.assign(static_cast<size_t>(component_count_), {});
    // -1 for GND, -2 for VDD, 0 for any other node.
    const auto supply_code = [](NodeId v) -> std::int32_t {
        return v == SwitchNetlist::kGnd ? -1
               : v == SwitchNetlist::kVdd ? -2
                                          : 0;
    };
    // A component's structure key: node count, then per transistor its
    // type and its gate, source and drain as a gate-net digit, a node slot
    // or a supply.  Equal keys make solve_component run the same
    // arithmetic, so one table serves every instance of a structure.
    std::map<std::vector<std::int32_t>, std::int32_t> shared;
    std::vector<std::int32_t> key;
    State state = initial_state();
    State prev = initial_state();
    for (std::int32_t c = 0; c < component_count_; ++c) {
        const auto& nodes = comp_nodes_[static_cast<size_t>(c)];
        const auto slot = [&](NodeId v) -> std::int32_t {
            if (const std::int32_t code = supply_code(v)) return code;
            return static_cast<std::int32_t>(
                std::lower_bound(nodes.begin(), nodes.end(), v) -
                nodes.begin());
        };
        Compiled cc;
        key.assign(1, static_cast<std::int32_t>(nodes.size()));
        bool eligible = true;
        for (int t : comp_transistors_[static_cast<size_t>(c)]) {
            const auto& tr = netlist_->transistors[static_cast<size_t>(t)];
            std::int32_t gate = supply_code(tr.gate);
            if (component_of_[static_cast<size_t>(tr.gate)] == c) {
                eligible = false;  // a node of its own gates it
                break;
            }
            if (gate == 0) {  // a signal gate: its digit, new or seen
                const auto end = cc.gates.begin() + cc.gate_count;
                gate = static_cast<std::int32_t>(
                    std::find(cc.gates.begin(), end, tr.gate) -
                    cc.gates.begin());
                if (gate == cc.gate_count) {
                    if (cc.gate_count == kTableGates) {
                        eligible = false;
                        break;
                    }
                    cc.gates[static_cast<size_t>(cc.gate_count++)] = tr.gate;
                }
            }
            key.insert(key.end(), {tr.is_pmos ? 1 : 0, gate, slot(tr.source),
                                   slot(tr.drain)});
        }
        if (!eligible) continue;
        const auto [it, fresh] = shared.try_emplace(
            key, static_cast<std::int32_t>(table_base_.size()));
        cc.table = it->second;
        if (fresh) {
            // Row r sets gate digit i to (r / 3^i) mod 3; each row is solved
            // once per uniform previous value, which per node is exact.
            const size_t ns = nodes.size();
            std::uint32_t rows = 1;
            for (int i = 0; i < cc.gate_count; ++i) rows *= 3;
            const size_t base = table_data_.size();
            table_base_.push_back(static_cast<std::uint32_t>(base));
            table_data_.resize(base + rows * ns, 0);
            for (std::uint32_t r = 0; r < rows; ++r) {
                std::uint32_t digits = r;
                for (int i = 0; i < cc.gate_count; ++i, digits /= 3) {
                    const NodeId g = cc.gates[static_cast<size_t>(i)];
                    state[static_cast<size_t>(g)] = static_cast<SV>(digits % 3);
                }
                std::uint8_t* entry = table_data_.data() + base + r * ns;
                for (const SV p : {SV::Zero, SV::One, SV::X}) {
                    for (NodeId v : nodes) prev[static_cast<size_t>(v)] = p;
                    solve_component(state, prev, std::span(&c, 1), FaultView{});
                    const int shift = 2 * static_cast<int>(p);
                    for (size_t i = 0; i < ns; ++i)
                        entry[i] |= static_cast<std::uint8_t>(
                            static_cast<unsigned>(
                                state[static_cast<size_t>(nodes[i])])
                            << shift);
                }
            }
        }
        compiled_[static_cast<size_t>(c)] = cc;
    }
}

SwitchSim::State SwitchSim::initial_state() const {
    State s(static_cast<size_t>(netlist_->node_count), SV::X);
    s[SwitchNetlist::kGnd] = SV::Zero;
    s[SwitchNetlist::kVdd] = SV::One;
    return s;
}

void SwitchSim::solve_component(State& state, const State& prev,
                                std::span<const std::int32_t> comps,
                                const FaultView& fault) const {
    // Collect the node set and transistor list of the (possibly merged)
    // component group.
    static thread_local std::vector<NodeId> nodes;
    static thread_local std::vector<int> node_slot;
    nodes.clear();
    for (std::int32_t c : comps)
        for (NodeId v : comp_nodes_[static_cast<size_t>(c)]) nodes.push_back(v);
    if (nodes.empty()) return;
    if (node_slot.size() < static_cast<size_t>(netlist_->node_count))
        node_slot.assign(static_cast<size_t>(netlist_->node_count), -1);
    for (size_t i = 0; i < nodes.size(); ++i)
        node_slot[static_cast<size_t>(nodes[i])] = static_cast<int>(i);
    const size_t ns = nodes.size();

    // Unknown boolean variables.  X-valued gate nets are enumerated as
    // *nets*, not per transistor, so complementary N/P pairs stay mutually
    // exclusive - the two-extremes ("all maybe on / all off") shortcut is
    // non-monotone and oscillates on bridge feedback loops.  Fault-floating
    // transistor gates and X-valued bridged-in terminals get their own
    // variables.  The node value is the ternary join over all assignments.
    struct Var {
        char kind;      // 'g' gate net, 'f' floating transistor, 't' terminal
        std::int64_t key;
    };
    static thread_local std::vector<Var> vars;
    vars.clear();
    const auto find_var = [&](char kind, std::int64_t key) {
        for (size_t i = 0; i < vars.size(); ++i)
            if (vars[i].kind == kind && vars[i].key == key)
                return static_cast<int>(i);
        vars.push_back({kind, key});
        return static_cast<int>(vars.size() - 1);
    };

    struct Edge {
        int u, v;       ///< slot indices, or -1 when the end is a terminal
        NodeId tu, tv;  ///< original node ids
        double g;
        int var;        ///< -1: always conducts; else variable index
        bool invert;    ///< edge conducts when the variable is 0 (PMOS)
    };
    static thread_local std::vector<Edge> edges;
    edges.clear();

    for (std::int32_t c : comps)
        for (int t : comp_transistors_[static_cast<size_t>(c)]) {
            const auto& tr = netlist_->transistors[static_cast<size_t>(t)];
            if (fault.removed(t)) continue;
            int var = -1;
            bool invert = false;
            if (fault.floating(t)) {
                if (gate_float_unknown(*fault.fault)) {
                    var = find_var('f', t);
                } else {
                    const bool high = fault.fault->float_level ==
                                      SwitchFault::FloatLevel::High;
                    if (!(tr.is_pmos ? !high : high)) continue;  // off
                }
            } else {
                const SV gv = state[static_cast<size_t>(tr.gate)];
                if (gv == SV::X) {
                    var = find_var('g', tr.gate);
                    invert = tr.is_pmos;
                } else {
                    const bool high = gv == SV::One;
                    if (!(tr.is_pmos ? !high : high)) continue;  // off
                }
            }
            edges.push_back({node_slot[static_cast<size_t>(tr.source)],
                             node_slot[static_cast<size_t>(tr.drain)],
                             tr.source, tr.drain,
                             tr.is_pmos ? params_.g_pmos : params_.g_nmos,
                             var, invert});
        }
    if (fault.has_bridge()) {
        const auto add_bridge_edge = [&](NodeId a, NodeId b) {
            const int sa = node_slot[static_cast<size_t>(a)];
            const int sb = node_slot[static_cast<size_t>(b)];
            if (sa >= 0 || sb >= 0)
                edges.push_back({sa, sb, a, b, params_.g_bridge, -1, false});
        };
        add_bridge_edge(fault.fault->a, fault.fault->b);
        if (fault.fault->c >= 0)
            add_bridge_edge(fault.fault->b, fault.fault->c);
    }
    // X-valued terminals (a bridged-in PI that was itself forced to X).
    for (const Edge& e : edges) {
        if (e.u < 0 && state[static_cast<size_t>(e.tu)] == SV::X)
            find_var('t', e.tu);
        if (e.v < 0 && state[static_cast<size_t>(e.tv)] == SV::X)
            find_var('t', e.tv);
    }

    static thread_local std::vector<SV> joined;
    joined.assign(ns, SV::X);

    constexpr int kMaxVars = 6;
    if (static_cast<int>(vars.size()) > kMaxVars) {
        // Too many unknowns: nodes that could possibly be driven become X;
        // nodes with no conceivable path to a terminal keep their charge.
        static thread_local std::vector<char> maybe_driven;
        maybe_driven.assign(ns, 0);
        for (const Edge& e : edges) {
            if (e.u < 0 && e.v >= 0) maybe_driven[static_cast<size_t>(e.v)] = 1;
            if (e.v < 0 && e.u >= 0) maybe_driven[static_cast<size_t>(e.u)] = 1;
        }
        bool grew = true;
        while (grew) {
            grew = false;
            for (const Edge& e : edges) {
                if (e.u < 0 || e.v < 0) continue;
                const size_t a = static_cast<size_t>(e.u);
                const size_t b = static_cast<size_t>(e.v);
                if (maybe_driven[a] != maybe_driven[b]) {
                    maybe_driven[a] = maybe_driven[b] = 1;
                    grew = true;
                }
            }
        }
        for (size_t i = 0; i < ns; ++i)
            joined[i] = maybe_driven[i]
                            ? SV::X
                            : prev[static_cast<size_t>(nodes[i])];
        for (size_t i = 0; i < ns; ++i)
            state[static_cast<size_t>(nodes[i])] = joined[i];
        for (NodeId v : nodes) node_slot[static_cast<size_t>(v)] = -1;
        return;
    }

    const auto term_voltage = [&](NodeId v, unsigned assignment) -> double {
        const SV tv = state[static_cast<size_t>(v)];
        if (tv == SV::X) {
            for (size_t i = 0; i < vars.size(); ++i)
                if (vars[i].kind == 't' && vars[i].key == v)
                    return (assignment >> i) & 1u ? 1.0 : 0.0;
        }
        return tv == SV::One ? 1.0 : 0.0;
    };

    static thread_local std::vector<double> a_mat;
    static thread_local std::vector<double> rhs;
    static thread_local std::vector<char> driven;
    static thread_local std::vector<char> active;

    const unsigned combos = 1u << vars.size();
    for (unsigned assignment = 0; assignment < combos; ++assignment) {
        active.assign(edges.size(), 0);
        for (size_t e = 0; e < edges.size(); ++e) {
            const int var = edges[e].var;
            if (var < 0)
                active[e] = 1;
            else {
                const bool bit = (assignment >> var) & 1u;
                active[e] = (bit != edges[e].invert) ? 1 : 0;
            }
        }

        a_mat.assign(ns * ns, 0.0);
        rhs.assign(ns, 0.0);
        driven.assign(ns, 0);
        for (size_t e = 0; e < edges.size(); ++e) {
            if (!active[e]) continue;
            const Edge& ed = edges[e];
            if (ed.u >= 0 && ed.v >= 0) {
                a_mat[static_cast<size_t>(ed.u) * ns + static_cast<size_t>(ed.u)] += ed.g;
                a_mat[static_cast<size_t>(ed.v) * ns + static_cast<size_t>(ed.v)] += ed.g;
                a_mat[static_cast<size_t>(ed.u) * ns + static_cast<size_t>(ed.v)] -= ed.g;
                a_mat[static_cast<size_t>(ed.v) * ns + static_cast<size_t>(ed.u)] -= ed.g;
            } else if (ed.u >= 0 || ed.v >= 0) {
                const int slot = ed.u >= 0 ? ed.u : ed.v;
                const NodeId term = ed.u >= 0 ? ed.tv : ed.tu;
                a_mat[static_cast<size_t>(slot) * ns + static_cast<size_t>(slot)] += ed.g;
                rhs[static_cast<size_t>(slot)] += ed.g * term_voltage(term, assignment);
                driven[static_cast<size_t>(slot)] = 1;
            }
        }
        bool grew = true;
        while (grew) {
            grew = false;
            for (size_t e = 0; e < edges.size(); ++e) {
                if (!active[e]) continue;
                const Edge& ed = edges[e];
                if (ed.u < 0 || ed.v < 0) continue;
                const size_t p = static_cast<size_t>(ed.u);
                const size_t q = static_cast<size_t>(ed.v);
                if (driven[p] != driven[q]) {
                    driven[p] = driven[q] = 1;
                    grew = true;
                }
            }
        }
        for (size_t i = 0; i < ns; ++i)
            if (a_mat[i * ns + i] == 0.0) a_mat[i * ns + i] = 1.0;

        // Gauss-Jordan with partial pivoting.
        for (size_t col = 0; col < ns; ++col) {
            size_t pivot = col;
            for (size_t r = col + 1; r < ns; ++r)
                if (std::abs(a_mat[r * ns + col]) >
                    std::abs(a_mat[pivot * ns + col]))
                    pivot = r;
            if (std::abs(a_mat[pivot * ns + col]) < 1e-12) continue;
            if (pivot != col) {
                for (size_t k = 0; k < ns; ++k)
                    std::swap(a_mat[col * ns + k], a_mat[pivot * ns + k]);
                std::swap(rhs[col], rhs[pivot]);
            }
            const double d = a_mat[col * ns + col];
            for (size_t r = 0; r < ns; ++r) {
                if (r == col) continue;
                const double f = a_mat[r * ns + col] / d;
                if (f == 0.0) continue;
                for (size_t k = col; k < ns; ++k)
                    a_mat[r * ns + k] -= f * a_mat[col * ns + k];
                rhs[r] -= f * rhs[col];
            }
        }

        for (size_t i = 0; i < ns; ++i) {
            SV value;
            if (!driven[i]) {
                value = prev[static_cast<size_t>(nodes[i])];  // charge
            } else {
                const double d = a_mat[i * ns + i];
                const double v = d == 0.0 ? 0.5 : rhs[i] / d;
                value = v >= params_.v_high
                            ? SV::One
                            : (v <= params_.v_low ? SV::Zero : SV::X);
            }
            if (assignment == 0)
                joined[i] = value;
            else if (joined[i] != value)
                joined[i] = SV::X;
        }
    }

    for (size_t i = 0; i < ns; ++i)
        state[static_cast<size_t>(nodes[i])] = joined[i];
    for (NodeId v : nodes) node_slot[static_cast<size_t>(v)] = -1;
}

std::vector<NodeId> SwitchSim::solve_reads(std::span<const std::int32_t> comps,
                                           const FaultView& fault) const {
    // Mirrors the edge collection of solve_component: a transistor's
    // source and drain are group nodes or supplies, so only its gate is
    // read; a bridge edge enters when one end is a group node, and an end
    // outside the group is a terminal.
    const auto is_supply = [](NodeId v) {
        return v == SwitchNetlist::kGnd || v == SwitchNetlist::kVdd;
    };
    const auto in_group = [&](NodeId v) {
        const std::int32_t c = component_of_[static_cast<size_t>(v)];
        return c >= 0 && std::find(comps.begin(), comps.end(), c) != comps.end();
    };
    std::vector<NodeId> reads;
    for (std::int32_t c : comps)
        for (int t : comp_transistors_[static_cast<size_t>(c)]) {
            if (fault.removed(t) || fault.floating(t)) continue;
            const NodeId g = netlist_->transistors[static_cast<size_t>(t)].gate;
            if (!is_supply(g)) reads.push_back(g);
        }
    if (fault.has_bridge()) {
        const auto add_terminals = [&](NodeId a, NodeId b) {
            const bool ga = in_group(a);
            const bool gb = in_group(b);
            if (!ga && !gb) return;
            if (!ga && !is_supply(a)) reads.push_back(a);
            if (!gb && !is_supply(b)) reads.push_back(b);
        };
        add_terminals(fault.fault->a, fault.fault->b);
        if (fault.fault->c >= 0) add_terminals(fault.fault->b, fault.fault->c);
    }
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    return reads;
}

void SwitchSim::run(State& state, std::span<const bool> inputs,
                    const FaultView& fault) const {
    if (inputs.size() != netlist_->input_nodes.size())
        throw std::invalid_argument("input width mismatch");
    const State prev = state;
    state[SwitchNetlist::kGnd] = SV::Zero;
    state[SwitchNetlist::kVdd] = SV::One;
    for (size_t i = 0; i < inputs.size(); ++i)
        state[static_cast<size_t>(netlist_->input_nodes[i])] =
            inputs[i] ? SV::One : SV::Zero;

    // Bridged fixed (component-less) nodes - shorted driven inputs resolve
    // wired-AND (the standard convention for bridged driven nets; a supply
    // always wins).  Bridged channel components merge into one solve group.
    std::vector<std::int32_t> merged;  // comps merged by a bridge
    if (fault.has_bridge()) {
        const auto nodes = bridge_nodes(*fault.fault);
        for (NodeId n : nodes) {
            const std::int32_t c = component_of_[static_cast<size_t>(n)];
            if (c >= 0 &&
                std::find(merged.begin(), merged.end(), c) == merged.end())
                merged.push_back(c);
        }
        if (merged.size() < 2) merged.clear();
        bool all_fixed = true;
        for (NodeId n : nodes)
            if (component_of_[static_cast<size_t>(n)] >= 0) all_fixed = false;
        if (all_fixed) {
            std::vector<SV> values;
            for (NodeId n : nodes)
                values.push_back(state[static_cast<size_t>(n)]);
            const SV resolved = resolve_fixed_bridge(nodes, values);
            for (NodeId n : nodes)
                if (n != SwitchNetlist::kGnd && n != SwitchNetlist::kVdd)
                    state[static_cast<size_t>(n)] = resolved;
        }
    }

    // Ternary simulation from X: every channel node restarts at X and the
    // sweeps converge to the least fixpoint, which is unique and
    // independent of evaluation order (bridge faults can create feedback
    // loops where other starting points would pick an arbitrary branch).
    // Charge retention is unaffected: it enters through `prev`.
    for (NodeId v = 0; v < netlist_->node_count; ++v)
        if (component_of_[static_cast<size_t>(v)] >= 0)
            state[static_cast<size_t>(v)] = SV::X;

    bool changed = true;
    int sweeps = 0;
    while (changed && sweeps++ < params_.max_sweeps) {
        changed = false;
        for (std::int32_t c = 0; c < component_count_; ++c) {
            if (!merged.empty() &&
                std::find(merged.begin(), merged.end(), c) != merged.end()) {
                if (c != merged[0]) continue;  // solve the group once
                State before = state;
                solve_component(state, prev, merged, fault);
                if (before != state) changed = true;
                continue;
            }
            // Cheap change detection: compare the component's nodes.
            const auto& cn = comp_nodes_[static_cast<size_t>(c)];
            static thread_local std::vector<SV> before;
            before.clear();
            for (NodeId v : cn) before.push_back(state[static_cast<size_t>(v)]);
            const std::int32_t one = c;
            solve_component(state, prev, std::span(&one, 1), fault);
            for (size_t i = 0; i < cn.size(); ++i)
                if (before[i] != state[static_cast<size_t>(cn[i])]) {
                    changed = true;
                    break;
                }
        }
    }
}

void SwitchSim::lookup_component(State& state, const State& prev,
                                 std::int32_t comp) const {
    const std::uint8_t* row = table_row(comp, state);
    for (NodeId v : comp_nodes_[static_cast<size_t>(comp)])
        state[static_cast<size_t>(v)] =
            table_value(*row++, prev[static_cast<size_t>(v)]);
}

int SwitchSim::settle(State& state, const State& prev,
                      std::span<const bool> inputs) const {
    if (inputs.size() != netlist_->input_nodes.size())
        throw std::invalid_argument("input width mismatch");
    state = prev;
    state[SwitchNetlist::kGnd] = SV::Zero;
    state[SwitchNetlist::kVdd] = SV::One;
    for (size_t i = 0; i < inputs.size(); ++i)
        state[static_cast<size_t>(netlist_->input_nodes[i])] =
            inputs[i] ? SV::One : SV::Zero;

    int solves = 0;
    const auto evaluate = [&](std::int32_t c) {
        if (table_of(c) >= 0) {
            lookup_component(state, prev, c);
        } else {
            solve_component(state, prev, std::span(&c, 1), FaultView{});
            ++solves;
        }
    };
    // Below the tail every component reads only components ordered before
    // it, which are final when it is evaluated: one pass is the unique
    // fixpoint.
    for (size_t i = 0; i < tail_begin_; ++i) evaluate(order_[i]);

    // The cyclic tail restarts from X and sweeps, in index order, to its
    // least fixpoint - the reference's semantics.
    const auto tail = std::span(order_).subspan(tail_begin_);
    for (std::int32_t c : tail)
        for (NodeId v : comp_nodes_[static_cast<size_t>(c)])
            state[static_cast<size_t>(v)] = SV::X;
    static thread_local std::vector<SV> before;
    bool changed = !tail.empty();
    int sweeps = 0;
    while (changed && sweeps++ < params_.max_sweeps) {
        changed = false;
        for (std::int32_t c : tail) {
            const auto& cn = comp_nodes_[static_cast<size_t>(c)];
            before.clear();
            for (NodeId v : cn) before.push_back(state[static_cast<size_t>(v)]);
            evaluate(c);
            for (size_t i = 0; i < cn.size() && !changed; ++i)
                changed = before[i] != state[static_cast<size_t>(cn[i])];
        }
    }
    return solves;
}

void SwitchSim::step(State& state, std::span<const bool> inputs) const {
    FaultView fv;
    run(state, inputs, fv);
}

void SwitchSim::step_faulty(State& state, std::span<const bool> inputs,
                            const SwitchFault& fault) const {
    FaultView fv;
    fv.fault = &fault;
    run(state, inputs, fv);
}

std::vector<SV> SwitchSim::outputs(const State& state) const {
    std::vector<SV> out;
    out.reserve(netlist_->output_nodes.size());
    for (NodeId v : netlist_->output_nodes)
        out.push_back(state[static_cast<size_t>(v)]);
    return out;
}

}  // namespace dlp::switchsim
