// Gate-level combinational circuit IR.
//
// A circuit is a DAG of single-output gates.  Net j is, by definition, the
// output of gate j (primary inputs are gates of type Input), so nets and
// gates share one index space.  Gates can only reference already-created
// nets, which makes the gate order a topological order by construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dlp::netlist {

/// Index of a net (== index of the gate driving it).
using NetId = std::uint32_t;
constexpr NetId kNoNet = static_cast<NetId>(-1);

enum class GateType : std::uint8_t {
    Input,  ///< primary input (no fanin)
    Buf,
    Not,
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
};

/// Human-readable gate-type name ("NAND", ...).
const char* gate_type_name(GateType type);

/// The fanin-count rule: nullptr when a `type` gate may have `arity`
/// fanins, else the reason.  Circuit::add_gate and the .bench scan both
/// apply it.
const char* arity_error(GateType type, std::size_t arity);

/// Evaluates a gate over bit-parallel words (one simulation per bit lane).
/// Input gates are invalid here; Buf/Not take exactly one operand.
std::uint64_t eval_gate(GateType type, std::span<const std::uint64_t> fanin);

struct Gate {
    GateType type = GateType::Input;
    std::string name;           ///< net name (unique within the circuit)
    std::vector<NetId> fanin;   ///< driving nets, in pin order
};

class Circuit {
public:
    explicit Circuit(std::string name = "circuit") : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /// Adds a primary input; returns its net id.
    NetId add_input(std::string name);

    /// Adds a logic gate whose fanin nets must already exist.
    /// Throws std::invalid_argument on bad type/arity/fanin.
    NetId add_gate(GateType type, std::string name,
                   std::vector<NetId> fanin);

    /// Marks an existing net as a primary output (idempotent).
    void mark_output(NetId net);

    std::size_t gate_count() const { return gates_.size(); }
    const Gate& gate(NetId id) const { return gates_.at(id); }
    std::span<const Gate> gates() const { return gates_; }

    std::span<const NetId> inputs() const { return inputs_; }
    std::span<const NetId> outputs() const { return outputs_; }
    bool is_output(NetId net) const;

    /// Number of gates that are not primary inputs.
    std::size_t logic_gate_count() const { return gates_.size() - inputs_.size(); }

    /// Net id by name; returns kNoNet if absent (linear in circuit size only
    /// on first call; an index is built lazily).
    NetId find(const std::string& name) const;

    /// Fanout lists: for each net, the ids of gates reading it.
    std::vector<std::vector<NetId>> fanouts() const;

    /// Logic level per net (inputs are level 0).
    std::vector<int> levels() const;
    int depth() const;

    /// Structural sanity: every non-output net has fanout, names unique,
    /// arities valid.  Returns a list of violations (empty = clean).
    std::vector<std::string> validate() const;

    /// Gate count per type, indexed by static_cast<size_t>(GateType).
    std::vector<std::size_t> type_histogram() const;

private:
    std::string name_;
    std::vector<Gate> gates_;
    std::vector<NetId> inputs_;
    std::vector<NetId> outputs_;
    /// Per net: 1 iff a PO.  Sized by mark_output, so nets added after the
    /// last mark are past its end (and not outputs).
    std::vector<std::uint8_t> is_output_;
};

}  // namespace dlp::netlist
