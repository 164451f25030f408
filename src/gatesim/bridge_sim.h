// Gate-level (abstract) bridging-fault simulation, for comparison with the
// switch-level electrical reference.
//
// The classic logic-level abstractions force both bridged nets to a common
// resolved value: wired-AND, wired-OR, or one driver dominating.  The
// paper's argument is that such abstractions (like the stuck-at model) are
// only approximations of the electrical behaviour; the ablation bench
// quantifies how often they disagree with nodal analysis.
//
// Bridges can create topological cycles at the logic level (the resolved
// value feeds logic driving one of the bridged nets).  Those are evaluated
// to a fixpoint; an oscillating fixpoint is treated as undetected by the
// vector (no guaranteed voltage difference).
#pragma once

#include <span>
#include <vector>

#include "gatesim/logic_sim.h"

namespace dlp::gatesim {

/// Resolution rule of a gate-level bridge.
enum class BridgeRule : std::uint8_t {
    WiredAnd,
    WiredOr,
    ADominates,  ///< net a's value wins on conflict
    BDominates,
};

struct GateBridgeFault {
    NetId a = 0;
    NetId b = 0;
    BridgeRule rule = BridgeRule::WiredAnd;
};

/// Simulates one vector under a gate-level bridge; returns the primary
/// output values, or nothing if the bridge oscillates on this vector.
/// Exposed mainly for tests; use GateBridgeSimulator for sequences.
std::vector<bool> simulate_bridge(const Circuit& circuit,
                                  const Vector& vector,
                                  const GateBridgeFault& fault,
                                  bool* oscillated = nullptr);

/// Sequence simulator with fault dropping, mirroring the stuck-at
/// sim::Session.
class GateBridgeSimulator {
public:
    GateBridgeSimulator(const Circuit& circuit,
                        std::vector<GateBridgeFault> faults);

    int apply(std::span<const Vector> vectors);

    std::span<const GateBridgeFault> faults() const { return faults_; }
    std::span<const int> first_detected_at() const { return detected_at_; }
    double coverage() const;

private:
    const Circuit& circuit_;
    std::vector<GateBridgeFault> faults_;
    std::vector<int> detected_at_;
    int vectors_applied_ = 0;
};

}  // namespace dlp::gatesim
