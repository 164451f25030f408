// Stuck-at fault-simulation engine API (namespace dlp::sim).
//
// Two engines implement one `Session` contract: `naive`, a scalar
// per-vector reference oracle, and `levelized`, the production engine
// (gatesim::LevelizedFaultSimulator).  Production code — ATPG test
// generation and the experiment flow — constructs the levelized simulator
// directly; the fixed name table below exists for the differential tests,
// the perf benches and the golden-corpus judge, which pin both engines.
//
// The load-bearing invariant: both engines produce BIT-IDENTICAL results —
// the same first-detection index per fault, hence byte-identical coverage
// curves — for any vector sequence, worker count, and budget.  The
// differential suite in tests/test_engine.cpp enforces it against the
// naive oracle, and the golden digests under data/golden/ pin it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "gatesim/faults.h"
#include "gatesim/logic_sim.h"
#include "parallel/parallel_for.h"
#include "support/cancel.h"

namespace dlp::sim {

/// Per-session knobs passed to Engine::open().
struct SessionOptions {
    /// n-detection target: a fault is dropped from simulation only after
    /// it has been detected by `ndetect` vector positions (Pomeranz &
    /// Reddy n-detection test sets).  1 recovers the classic single-
    /// detection behavior exactly — same dropping, same work, same bytes.
    int ndetect = 1;
    /// Optional per-fault untestability marks (parallel to the fault list;
    /// empty = no marks).  A marked fault is proven undetectable by the
    /// static analysis pass (analysis::find_untestable) and is never
    /// simulated: its detection index stays -1 and its count stays 0, for
    /// every engine.  The marks only *skip* work — they never preset
    /// counts — so detection_counts()/coverage stay honest.
    std::vector<std::uint8_t> untestable;
};

/// A fault-simulation run over one (circuit, stuck-at fault list) pair.
/// Vectors are applied in sequence (appending); per fault the session
/// records the 1-based index of the first detecting vector.  Faults are
/// dropped from subsequent simulation once detected `ndetect` times
/// (SessionOptions; default 1 = classic drop-on-first-detection).
///
/// Contract (shared by every engine, enforced by the differential suite):
///   * apply() consumes vectors in 64-wide pattern blocks and checks the
///     budget at block boundaries only, so a stopped call commits a whole
///     number of blocks and everything recorded is a bit-identical prefix
///     of the unbounded run (see support/cancel.h).
///   * Results are independent of the worker count.
///   * first_detected_at(), detection_counts() and nth_detected_at() are
///     bit-identical across engines.
class Session {
public:
    virtual ~Session() = default;

    /// The fault universe this session grades (in construction order).
    virtual std::span<const gatesim::StuckAtFault> faults() const = 0;

    /// Per fault: 1-based index of the first detecting vector, -1 if still
    /// undetected.
    virtual std::span<const int> first_detected_at() const = 0;

    virtual int vectors_applied() const = 0;

    /// Budget-aware apply; see the class contract.
    virtual support::ApplyResult apply(
        std::span<const gatesim::Vector> vectors,
        const support::RunBudget& budget) = 0;

    /// Unbounded apply; returns the number of newly detected faults.
    int apply(std::span<const gatesim::Vector> vectors) {
        return apply(vectors, support::RunBudget{}).newly_detected;
    }

    // ---- n-detection accounting ------------------------------------------

    /// The session's n-detection target (SessionOptions::ndetect).
    virtual int ndetect_target() const = 0;

    /// Per fault: number of detecting vector positions seen so far,
    /// saturated at ndetect_target().  Monotone in the applied prefix and
    /// (for a fixed sequence) in the target n.
    virtual std::vector<int> detection_counts() const = 0;

    /// Per fault: 1-based index of the vector at which the detection count
    /// reached ndetect_target(); -1 while still below target.  Equals
    /// first_detected_at() when the target is 1.
    virtual std::vector<int> nth_detected_at() const = 0;

    // Derived accessors, computed from the detection table so every engine
    // shares one definition.
    std::size_t detected_count() const;
    double coverage() const;
    /// Coverage after each prefix: result[k-1] = fraction detected by the
    /// first k vectors.
    std::vector<double> coverage_curve() const;
    /// Indices (into faults()) of still-undetected faults.
    std::vector<std::size_t> undetected() const;
    /// Faults whose detection count reached the n-detection target.
    std::size_t fully_detected_count() const;
};

/// A named fault-simulation engine: a factory for Sessions.
class Engine {
public:
    virtual ~Engine() = default;

    /// Stable lowercase name: "naive" or "levelized".
    virtual std::string_view name() const = 0;
    /// One-line description for benches and docs.
    virtual std::string_view description() const = 0;

    /// Opens a session.  `circuit` must outlive the session; `parallel` is
    /// the worker-count request for the shared pool (the oracle ignores
    /// it; results never depend on it).  `options` carries per-session
    /// knobs such as the n-detection target.
    virtual std::unique_ptr<Session> open(
        const gatesim::Circuit& circuit,
        std::vector<gatesim::StuckAtFault> faults,
        parallel::ParallelOptions parallel = {},
        SessionOptions options = {}) const = 0;
};

/// Engine names, oracle first: {"naive", "levelized"}.
std::vector<std::string_view> engine_names();

/// The engine named `name`; throws std::invalid_argument naming both
/// engines when unknown.
const Engine& engine(std::string_view name);

}  // namespace dlp::sim
