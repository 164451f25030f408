// PODEM (Path-Oriented DEcision Making) deterministic test generation for
// single stuck-at faults, with SCOAP-guided backtrace and X-path checks.
//
// Implication is event-driven: a decision re-evaluates only the fanout of
// the primary input it set, level by level, with the good and faulty
// machines packed dual-rail into one byte per net and evaluated together.
// Every state change goes on an undo trail, so a backtrack restores the
// state from before the decision it flips by walking the trail back, and
// then implies only the flipped input.  The X-path check and the
// D-frontier scan start from the nets carrying a fault effect, inside the
// fault's forward cone, instead of sweeping the circuit.  Values are a
// pure function of the PI assignment, so the search takes exactly the
// decisions a full re-simulation would (docs/ENGINES.md, "PODEM
// implication").
//
// The paper's experiment uses random vectors followed by deterministically
// generated ones (FAN in the original); PODEM fills the same role here:
// a complete branch-and-bound ATPG that either finds a test, proves the
// fault redundant, or aborts on a backtrack limit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "atpg/scoap.h"
#include "gatesim/faults.h"
#include "gatesim/logic_sim.h"
#include "support/cancel.h"

namespace dlp::atpg {

using gatesim::StuckAtFault;
using gatesim::Vector;

/// Ternary signal value.  The encoding is dual-rail (bit 0 "is 0", bit 1
/// "is 1"), which lets the search evaluate gates with bitwise operations.
enum class V3 : std::uint8_t { X = 0, Zero = 1, One = 2 };

V3 v3_from_bool(bool b);

struct PodemResult {
    enum class Status {
        TestFound,  ///< `cube` (and `test`) detects the fault
        Redundant,  ///< search space exhausted: the fault is untestable
        Aborted,    ///< backtrack limit hit before a decision
    };
    Status status = Status::Aborted;
    /// The PI assignment that detects the fault, X where the search left
    /// an input free; valid when status == TestFound.
    std::vector<V3> cube;
    Vector test;           ///< `cube` filled by fill_cube with the x-fill
    int backtracks = 0;    ///< decisions reverted during the search
    int implications = 0;  ///< imply() passes run (search effort measure)
    /// Gates evaluated across all imply() passes (both machines of one
    /// gate count once; nets restored from the undo trail do not count):
    /// the work behind `implications`.
    std::int64_t gate_evals = 0;
    /// Why an Aborted search stopped: None means the per-fault backtrack
    /// limit, otherwise the budget's cancel/deadline fired mid-search.
    support::StopReason stop = support::StopReason::None;
};

/// A test cube as a vector: input i keeps its binary value, and an X
/// input takes bit (i % 64) of `x_fill`.
Vector fill_cube(std::span<const V3> cube, std::uint64_t x_fill);

class Podem {
public:
    /// The circuit must outlive the Podem object; the testability
    /// measures are copied.
    Podem(const Circuit& circuit, Testability testability);

    /// Attempts to generate a test for one fault.  X inputs in `test` are
    /// filled with `x_fill` bits (deterministic; callers wanting random
    /// fill pass their own bits).  The search itself never reads `x_fill`
    /// and keeps no state from earlier calls: every field but `test` is a
    /// function of the fault, the limit and the budget alone.  When a
    /// budget is given, its cancel token and deadline are checked at every
    /// backtrack (the unit of search work); a budget stop aborts the
    /// search with `stop` set.
    PodemResult generate(const StuckAtFault& fault, int backtrack_limit,
                         std::uint64_t x_fill = 0,
                         const support::RunBudget* budget = nullptr);

private:
    V3 good(NetId g) const;
    bool is_x(NetId g) const;  // X in either machine
    static bool is_d(unsigned state);  // D or D': binary, machines differ
    void schedule(NetId g);
    void imply(PodemResult& result);
    void undo_to(size_t mark);
    bool x_path_exists();
    std::optional<std::pair<NetId, V3>> objective() const;
    std::pair<size_t, V3> backtrace(NetId net, V3 value) const;
    std::span<const NetId> fanin(NetId g) const {
        return {fanin_.data() + fanin_start_[g],
                fanin_.data() + fanin_start_[g + 1]};
    }
    std::span<const NetId> fanout(NetId g) const {
        return {fanout_.data() + fanout_start_[g],
                fanout_.data() + fanout_start_[g + 1]};
    }

    // Circuit structure, flattened: CSR fanin/fanout (fanout in ascending
    // reader order), levels, PO bytes.
    const Circuit& circuit_;
    Testability testability_;
    std::vector<netlist::GateType> type_;
    std::vector<std::uint32_t> fanin_start_;
    std::vector<NetId> fanin_;
    std::vector<std::uint32_t> fanout_start_;
    std::vector<NetId> fanout_;
    std::vector<std::uint32_t> level_;
    std::vector<std::uint8_t> is_po_;
    std::vector<size_t> pi_index_of_net_;  // kNoPi for non-input nets

    // Search state for the current fault.
    StuckAtFault fault_;
    NetId stem_ = netlist::kNoNet;  // fault_.net for a stem fault
    unsigned stuck_rail_ = 0;       // the stuck value as a faulty rail
    std::vector<V3> pi_;            // current PI assignment
    // Per net, both machines: good V3 in bits 0-1, faulty V3 in bits 2-3.
    std::vector<std::uint8_t> state_;
    // Nets that became D/D' since the search started; entries that no
    // longer are get dropped by x_path_exists().  `in_d_list_` guards
    // duplicates.
    std::vector<NetId> d_nets_;
    std::vector<std::uint8_t> in_d_list_;
    int d_outputs_ = 0;  // POs currently carrying D/D'
    // Undo trail: (net, state before the change) for every state change
    // since the search's initial implication, oldest first.
    std::vector<std::pair<NetId, std::uint8_t>> trail_;

    // Event queue, bucketed by level: level lv owns the slots
    // [level_start_[lv], level_start_[lv + 1]) of queue_, filled up to
    // level_end_[lv].  [lo_, hi_] spans the occupied levels (empty:
    // lo_ > hi_).
    std::vector<NetId> queue_;
    std::vector<std::uint32_t> level_start_;
    std::vector<std::uint32_t> level_end_;
    std::vector<std::uint8_t> queued_;
    std::uint32_t lo_ = UINT32_MAX;
    std::uint32_t hi_ = 0;

    // X-path search scratch: a net is visited iff its mark is the epoch.
    std::vector<std::uint32_t> visit_mark_;
    std::uint32_t visit_epoch_ = 0;
    std::vector<NetId> stack_;
};

}  // namespace dlp::atpg
