// PODEM (Path-Oriented DEcision Making) deterministic test generation for
// single stuck-at faults, with SCOAP-guided backtrace and X-path checks.
//
// The paper's experiment uses random vectors followed by deterministically
// generated ones (FAN in the original); PODEM fills the same role here:
// a complete branch-and-bound ATPG that either finds a test, proves the
// fault redundant, or aborts on a backtrack limit.
#pragma once

#include <cstdint>
#include <optional>

#include "atpg/scoap.h"
#include "gatesim/faults.h"
#include "gatesim/logic_sim.h"
#include "support/cancel.h"

namespace dlp::atpg {

using gatesim::StuckAtFault;
using gatesim::Vector;

/// Ternary signal value.
enum class V3 : std::uint8_t { Zero = 0, One = 1, X = 2 };

V3 v3_from_bool(bool b);

struct PodemResult {
    enum class Status {
        TestFound,  ///< `test` detects the fault (X inputs left as given fill)
        Redundant,  ///< search space exhausted: the fault is untestable
        Aborted,    ///< backtrack limit hit before a decision
    };
    Status status = Status::Aborted;
    Vector test;           ///< valid when status == TestFound
    int backtracks = 0;    ///< decisions reverted during the search
    int implications = 0;  ///< imply() passes run (search effort measure)
    /// Why an Aborted search stopped: None means the per-fault backtrack
    /// limit, otherwise the budget's cancel/deadline fired mid-search.
    support::StopReason stop = support::StopReason::None;
};

class Podem {
public:
    /// The circuit must outlive the Podem object; the testability
    /// measures are copied.
    Podem(const Circuit& circuit, Testability testability);

    /// Attempts to generate a test for one fault.  X inputs in the result
    /// are filled with `x_fill` bits (deterministic; callers wanting random
    /// fill pass their own bits).  When a budget is given, its cancel token
    /// and deadline are checked at every backtrack (the unit of search
    /// work); a budget stop aborts the search with `stop` set.
    PodemResult generate(const StuckAtFault& fault, int backtrack_limit,
                         std::uint64_t x_fill = 0,
                         const support::RunBudget* budget = nullptr);

private:
    void imply(const StuckAtFault& fault);
    bool detected() const;
    bool excitation_impossible(const StuckAtFault& fault) const;
    std::optional<std::pair<NetId, V3>> objective(const StuckAtFault& fault);
    std::pair<size_t, V3> backtrace(NetId net, V3 value) const;
    bool x_path_exists(const StuckAtFault& fault) const;

    const Circuit& circuit_;
    Testability testability_;
    std::vector<std::vector<NetId>> fanouts_;
    std::vector<size_t> pi_index_of_net_;  // kNoPi for non-input nets
    std::vector<V3> pi_;                   // current PI assignment
    std::vector<V3> good_;
    std::vector<V3> faulty_;
};

}  // namespace dlp::atpg
