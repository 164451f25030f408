// Transition (gate-delay) fault model and simulator.
//
// The paper's conclusions call for "delay and/or current testing" to reach
// zero-defect quality: static stuck-at vectors leave stuck-open and
// resistive defects undetected.  The classic logic-level abstraction is the
// transition fault: a line is slow-to-rise or slow-to-fall, and a pair of
// consecutive vectors (v1, v2) detects it iff
//   * v1 sets the line to the initial value (0 for slow-to-rise), and
//   * v2 detects the corresponding stuck-at fault (s-a-0 for slow-to-rise)
//     at a primary output.
// This launch-on-shift-free formulation matches combinational testing with
// an implicit vector-to-vector transition, which is also exactly the
// mechanism that detects stuck-open transistors at switch level.
#pragma once

#include <span>
#include <vector>

#include "gatesim/faults.h"
#include "gatesim/logic_sim.h"

namespace dlp::gatesim {

/// A transition fault on a stem line.
struct TransitionFault {
    NetId line = 0;
    bool slow_to_rise = false;  ///< false: slow-to-fall

    bool operator==(const TransitionFault&) const = default;
};

/// Human-readable name, e.g. "N12/STR".
std::string transition_fault_name(const Circuit& circuit,
                                  const TransitionFault& fault);

/// Both transition faults on every stem (2 per net).
std::vector<TransitionFault> full_transition_universe(const Circuit& circuit);

/// Simulates a vector sequence against transition faults.  Unlike the
/// stuck-at simulator this cannot drop faults eagerly across blocks (pair
/// detection depends on consecutive vectors), but the cost is one stuck-at
/// detection table per polarity.
class TransitionFaultSimulator {
public:
    TransitionFaultSimulator(const Circuit& circuit,
                             std::vector<TransitionFault> faults);

    /// Applies vectors in sequence (appending to the history).
    /// Returns the number of newly detected faults.
    int apply(std::span<const Vector> vectors);

    std::span<const TransitionFault> faults() const { return faults_; }
    std::span<const int> first_detected_at() const { return detected_at_; }
    int vectors_applied() const { return vectors_applied_; }
    double coverage() const;
    std::vector<double> coverage_curve() const;

private:
    const Circuit& circuit_;
    std::vector<TransitionFault> faults_;
    std::vector<int> detected_at_;
    Vector last_vector_;  ///< carries the pair across apply() calls
    bool has_last_ = false;
    int vectors_applied_ = 0;
};

}  // namespace dlp::gatesim
