// Switch-level simulation with exact nodal analysis, so resistive bridging
// faults resolve the way CMOS bridges do in silicon: parallel pull networks
// add, series stacks divide, and the stronger network wins (typically
// wired-AND, because NMOS conduct better than PMOS).
//
// Node values are ternary {0, 1, X}.  Per vector, each channel-connected
// component (CCC) is solved:
//  * transistors whose gate is a *binary* net are on or off; the component's
//    conductance Laplacian is solved exactly (Gauss-Jordan) and node
//    voltages classify against [v_low, v_high] - the middle band reads X,
//    the conservative answer for a static voltage test;
//  * X-valued gate *nets* are enumerated (both polarities) and the results
//    ternary-joined, keeping complementary N/P pairs mutually exclusive -
//    this is monotone, so the global sweep converges to the least fixpoint
//    regardless of evaluation order, even across bridge-created feedback;
//  * nodes with no conducting path keep their previous value (charge
//    retention) - this is what makes stuck-open faults need two-pattern
//    sequences, the paper's "opens are harder to detect" effect.
//
// A fault-free CCC whose gate nets are few and outside it is a pure
// function of its gate values and of each node's own retained charge, so
// construction compiles it into an exact ternary response table (built by
// solve_component itself, shared by every instance of the same structure)
// and settle() evaluates the fault-free circuit as one topological pass
// over the CCC graph with table lookups.  step() and step_faulty() - every
// channel node from X, whole-circuit sweeps - are the reference they are
// tested against.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "switchsim/switch_netlist.h"

namespace dlp::switchsim {

/// Ternary signal value.
enum class SV : std::uint8_t { Zero = 0, One = 1, X = 2 };

/// A fault being simulated (see extract/extractor.h for provenance).
struct SwitchFault {
    enum class Kind : std::uint8_t {
        None,            ///< no structural change
        Bridge,          ///< resistive short between nodes a and b
        TransistorOpen,  ///< listed transistors never conduct
        GateFloat,       ///< listed transistors' gates float (maybe-conduct)
        Gross,           ///< catastrophic (supply short): fails vector 1
    };
    Kind kind = Kind::None;
    NodeId a = -1;
    NodeId b = -1;
    NodeId c = -1;  ///< third node of a multi-node bridge (-1: two-net)
    std::vector<int> transistors;  ///< global indices (opens/floats)
    /// PO ordinal whose pad floats (reads X, never detects); -1 = none.
    /// Orthogonal to `kind`: a trunk open both floats gates and cuts a pad.
    int po_float = -1;
    /// GateFloat: level the floating gate drifts to.  Trapped charge varies
    /// per defect instance (assigned pseudo-randomly at extraction); a gate
    /// stuck in the mid band (Mid) defeats static voltage testing.
    enum class FloatLevel : std::uint8_t { Low, High, Mid };
    FloatLevel float_level = FloatLevel::Low;
};

/// Behaviour of a defect-floating transistor gate.  Real floating gates
/// drift to a DC level set by leakage and trapped charge; the level varies
/// per defect instance, so `PerFault` (the default) uses the fault's own
/// `float_high` bit.  `Unknown` is the conservative ternary model (the
/// gate may or may not conduct - such faults can never be guaranteed
/// detected by a voltage test) and is kept for ablation.
enum class FloatGateModel : std::uint8_t { PerFault, Unknown };

/// Conductances (arbitrary units; only ratios matter) and the voltage
/// thresholds used to classify solved node voltages.
struct SimParams {
    double g_nmos = 3.0;    ///< NMOS channel conductance
    double g_pmos = 1.0;    ///< PMOS channel conductance
    double g_bridge = 20.0; ///< bridge defect conductance (near-short)
    double v_high = 0.55;   ///< node reads 1 at or above this voltage
    double v_low = 0.45;    ///< node reads 0 at or below this voltage
    int max_sweeps = 64;    ///< global fixpoint cap
    FloatGateModel float_gate = FloatGateModel::PerFault;
};

class SwitchSim {
public:
    /// Internal view of the active fault during a solve (public so the
    /// incremental fault simulator can drive solve_component directly).
    struct FaultView {
        const SwitchFault* fault = nullptr;

        bool removed(int t) const {
            return fault &&
                   fault->kind == SwitchFault::Kind::TransistorOpen &&
                   contains(t);
        }
        bool floating(int t) const {
            return fault && fault->kind == SwitchFault::Kind::GateFloat &&
                   contains(t);
        }
        bool has_bridge() const {
            return fault && fault->kind == SwitchFault::Kind::Bridge;
        }

    private:
        bool contains(int t) const {
            for (int x : fault->transistors)
                if (x == t) return true;
            return false;
        }
    };

    explicit SwitchSim(const SwitchNetlist& netlist, SimParams params = {});

    const SwitchNetlist& netlist() const { return *netlist_; }

    /// True for a GateFloat fault whose floating gate has no definite
    /// level (FloatLevel::Mid, or any float under FloatGateModel::Unknown):
    /// solve_component gives each of its floating transistors a free
    /// variable, so the faulty machine can only weaken good values to X
    /// and never differs at a definite value (docs/ENGINES.md, "Faults
    /// that only weaken").
    bool gate_float_unknown(const SwitchFault& fault) const {
        return fault.kind == SwitchFault::Kind::GateFloat &&
               (params_.float_gate == FloatGateModel::Unknown ||
                fault.float_level == SwitchFault::FloatLevel::Mid);
    }

    /// Full node-state vector (indexed by NodeId).
    using State = std::vector<SV>;
    State initial_state() const;

    /// Reference: applies one input vector to `state` (previous values
    /// provide charge retention) in the fault-free circuit, sweeping every
    /// component from X to the least fixpoint.  Tests and benches only.
    void step(State& state, std::span<const bool> inputs) const;

    /// Reference: applies one input vector under a fault.  `state` is the
    /// fault circuit's own persistent state.  Tests and benches only.
    void step_faulty(State& state, std::span<const bool> inputs,
                     const SwitchFault& fault) const;

    /// Fault-free step from `prev` into `state`, equal to step(): one pass
    /// over the components in topological order (table lookups where
    /// compiled), then the cyclic tail swept from X to its fixpoint under
    /// SimParams::max_sweeps.  Returns the solve_component calls made.
    int settle(State& state, const State& prev,
               std::span<const bool> inputs) const;

    /// PO values of a state, in circuit output order.
    std::vector<SV> outputs(const State& state) const;

    /// Static channel-connected component of each node (-1 for supplies and
    /// gate-only nodes such as PIs).
    std::span<const std::int32_t> component_of() const { return component_of_; }
    int component_count() const { return component_count_; }

    /// Solves one channel-connected component group in place.  `state`
    /// supplies gate/terminal values and receives the group's new node
    /// values; `prev` supplies charge-retention values.
    void solve_component(State& state, const State& prev,
                         std::span<const std::int32_t> comps,
                         const FaultView& fault) const;

    /// The nets solve_component reads from `state` for this group under
    /// `fault`, ascending, supplies left out (they are constants): the
    /// gate nets of its transistors that are neither removed nor
    /// floating, and the bridge ends that enter the solve as terminals.
    /// May include the group's own nodes, when one gates the group.  With
    /// these values fixed, each node's result depends only on its own
    /// `prev` (docs/ENGINES.md, "Fault-site response rows").
    std::vector<NodeId> solve_reads(std::span<const std::int32_t> comps,
                                    const FaultView& fault) const;

    /// Components a value change on `node` can affect (via gates).
    std::span<const std::int32_t> gate_dependents(NodeId node) const {
        return gate_deps_[static_cast<size_t>(node)];
    }
    std::span<const NodeId> component_nodes(std::int32_t comp) const {
        return comp_nodes_[static_cast<size_t>(comp)];
    }
    const SimParams& params() const { return params_; }

    /// Components gated by a node of `comp`, ascending: the fault-free CCC
    /// graph's edges out of `comp`.
    std::span<const std::int32_t> readers(std::int32_t comp) const {
        return readers_[static_cast<size_t>(comp)];
    }
    /// Longest-path level of `comp` in the fault-free CCC graph.  When the
    /// graph has a cycle, every component on or below one shares the last
    /// level, depth() - 1: the cyclic tail.
    std::int32_t level(std::int32_t comp) const {
        return level_[static_cast<size_t>(comp)];
    }
    std::int32_t depth() const { return depth_; }
    bool acyclic() const { return tail_begin_ == order_.size(); }
    bool in_cyclic_tail(std::int32_t comp) const {
        return !acyclic() && level(comp) == depth_ - 1;
    }

    /// Most distinct gate nets a compiled response table is indexed by.
    static constexpr int kTableGates = 4;

    /// The compiled response table `comp` evaluates through in the
    /// fault-free circuit, or -1 when it needs the solver (more than
    /// kTableGates gate nets, or a node of its own gating it).  Components
    /// of the same structure share a table.
    std::int32_t table_of(std::int32_t comp) const {
        return compiled_[static_cast<size_t>(comp)].table;
    }
    std::size_t table_count() const { return table_base_.size(); }
    /// The gate nets indexing `comp`'s table, each a base-3 digit of the
    /// row (SV order), least significant first.  Supply gates are constants
    /// of the table, not digits.
    std::span<const NodeId> table_gates(std::int32_t comp) const {
        const Compiled& cc = compiled_[static_cast<size_t>(comp)];
        return std::span(cc.gates).first(static_cast<size_t>(cc.gate_count));
    }
    /// The table row for the gate values in `state`: entry i packs
    /// component node i's fault-free value for each previous value, see
    /// table_value().
    const std::uint8_t* table_row(std::int32_t comp,
                                  const State& state) const {
        const Compiled& cc = compiled_[static_cast<size_t>(comp)];
        size_t row = 0;
        for (int i = cc.gate_count - 1; i >= 0; --i) {
            const NodeId g = cc.gates[static_cast<size_t>(i)];
            row = 3 * row + static_cast<size_t>(state[static_cast<size_t>(g)]);
        }
        return table_data_.data() +
               table_base_[static_cast<size_t>(cc.table)] +
               row * comp_nodes_[static_cast<size_t>(comp)].size();
    }
    static SV table_value(std::uint8_t entry, SV prev) {
        return static_cast<SV>((entry >> (2 * static_cast<int>(prev))) & 3u);
    }
    /// Fault-free evaluation of a tabulated component: writes the values
    /// solve_component would with no fault.
    void lookup_component(State& state, const State& prev,
                          std::int32_t comp) const;

private:
    void run(State& state, std::span<const bool> inputs,
             const FaultView& fault) const;

    const SwitchNetlist* netlist_;
    SimParams params_;
    std::vector<std::int32_t> component_of_;
    int component_count_ = 0;
    std::vector<std::vector<int>> comp_transistors_;   ///< per component
    std::vector<std::vector<NodeId>> comp_nodes_;      ///< per component
    std::vector<std::vector<std::int32_t>> gate_deps_; ///< node -> components gated
    std::vector<std::vector<std::int32_t>> readers_;   ///< per component

    std::vector<std::int32_t> level_;  ///< per component
    std::int32_t depth_ = 1;           ///< number of levels
    /// Components in topological (Kahn) order, so each follows every
    /// component that gates it; then the cyclic tail, if any, by index
    /// from order_[tail_begin_].
    std::vector<std::int32_t> order_;
    std::size_t tail_begin_ = 0;

    struct Compiled {
        std::int32_t table = -1;
        std::int32_t gate_count = 0;
        std::array<NodeId, kTableGates> gates{};
    };
    std::vector<Compiled> compiled_;         ///< per component
    std::vector<std::uint32_t> table_base_;  ///< per table, into table_data_
    /// Table t: 3^gates rows of one byte per component node, each byte the
    /// node's value for prev 0, 1 and X in bits 0-1, 2-3 and 4-5.
    std::vector<std::uint8_t> table_data_;

    void level_components();
    void compile_tables();
};

}  // namespace dlp::switchsim
