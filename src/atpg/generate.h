// Full test-set generation driver: a random-pattern phase (levelized
// bit-parallel fault simulation with fault dropping) followed by
// deterministic PODEM for the remaining faults, mirroring the paper's
// "first vectors random, last deterministic" setup.
//
// With `ndetect > 1` a third phase tops the set up to an n-detection test
// set (Pomeranz & Reddy): already-detected faults are re-targeted — with
// uniform random, weighted-random, and/or PODEM-generated vectors,
// depending on the mix — until every detected fault has `ndetect` distinct
// detecting vectors (or the sources run dry).  The phase only appends, so
// the n-detect sequence extends the n=1 sequence vector for vector.
#pragma once

#include <cstdint>
#include <vector>

#include <string>
#include <string_view>

#include "atpg/podem.h"
#include "parallel/parallel_for.h"
#include "support/cancel.h"

namespace dlp::atpg {

/// Vector-source mix for the n-detection top-up phase (ndetect > 1).
enum class NDetectMix : std::uint8_t {
    Mixed,           ///< random, then weighted-random, then deterministic
    Random,          ///< uniform random blocks only
    WeightedRandom,  ///< input-biased random blocks only
    Deterministic,   ///< PODEM re-targeting only
};

/// Stable lowercase name ("mixed", "random", "weighted", "deterministic").
std::string_view ndetect_mix_name(NDetectMix mix);

/// Inverse of ndetect_mix_name; throws std::invalid_argument naming the
/// accepted values on an unknown name.
NDetectMix parse_ndetect_mix(std::string_view name);

struct TestGenOptions {
    int random_block = 64;     ///< vectors per random batch
    int max_random = 4096;     ///< cap on random vectors
    int stale_blocks = 4;      ///< stop random phase after this many barren batches
    std::uint64_t seed = 1;
    int backtrack_limit = 4096;
    /// Worker count (0 = default) for the embedded fault simulation and
    /// for the PODEM phase, which searches targets on every worker and
    /// commits them in fault order; the test set does not depend on it.
    parallel::ParallelOptions parallel;
    /// n-detection target: 1 generates the classic single-detection set
    /// (bit-identical to the pre-n-detect driver); > 1 appends a top-up
    /// phase until every detected fault has `ndetect` distinct detecting
    /// vectors.  Top-up vectors are deduplicated against the whole set, so
    /// counts reflect distinct tests.
    int ndetect = 1;
    /// Vector sources for the top-up phase (ignored when ndetect <= 1).
    NDetectMix ndetect_mix = NDetectMix::Mixed;
    /// Bounded-execution limits.  The cancel token / deadline are checked
    /// between random blocks, between target faults, and at every PODEM
    /// backtrack; `budget.max_vectors` caps the generated sequence and
    /// `budget.atpg_backtracks` (when > 0) overrides `backtrack_limit`.
    support::RunBudget budget;
    /// Statically proven-untestable marks (parallel to the fault list;
    /// empty = no static analysis).  Marked faults are recorded Redundant
    /// upfront — no PODEM search, no x-fill draw — and excluded from the
    /// embedded simulation, so coverage() (detected / (total - redundant))
    /// is the testability-corrected curve.  Empty marks reproduce the
    /// classic run byte for byte.
    std::vector<std::uint8_t> untestable;
};

/// Final status of one fault after test generation.
enum class FaultStatus : std::uint8_t {
    Detected,
    Redundant,   ///< proven untestable by PODEM
    Aborted,     ///< PODEM hit its backtrack limit
    Undetected,  ///< never targeted (only when a budget stopped the run)
};

struct TestGenResult {
    std::vector<Vector> vectors;     ///< full sequence, random prefix first
    int random_count = 0;            ///< length of the random prefix
    int deterministic_count = 0;     ///< PODEM-generated tail
    std::size_t detected = 0;
    std::size_t redundant = 0;       ///< proven untestable
    std::size_t aborted = 0;         ///< backtrack limit hit
    std::vector<int> first_detected_at;  ///< per fault, 1-based; -1 undetected
    std::vector<FaultStatus> status;     ///< per fault

    // n-detection accounting (trivial when ndetect == 1).
    int ndetect = 1;  ///< the target the set was generated toward
    /// Per fault: detecting vector positions, saturated at `ndetect`.
    std::vector<int> detection_counts;
    /// Per fault: 1-based index where the count reached `ndetect`; -1 below
    /// target.  Equals first_detected_at when ndetect == 1.
    std::vector<int> nth_detected_at;
    int topup_random_count = 0;         ///< uniform-random top-up vectors
    int topup_weighted_count = 0;       ///< weighted-random top-up vectors
    int topup_deterministic_count = 0;  ///< PODEM top-up vectors
    /// Why generation stopped early (None = ran to natural completion).
    /// On a stop, `vectors` is a bit-identical prefix of the sequence an
    /// unbounded run would generate, and untargeted faults stay Undetected.
    support::StopReason stop = support::StopReason::None;
    std::size_t untargeted = 0;  ///< faults never targeted due to the stop

    /// Coverage of testable faults: detected / (total - redundant).
    double coverage() const;
    /// Raw coverage: detected / total.
    double raw_coverage() const;
};

/// Generates a stuck-at test set for the given (typically collapsed) fault
/// list.  Deterministic in `options.seed`.
TestGenResult generate_test_set(const Circuit& circuit,
                                std::vector<StuckAtFault> faults,
                                const TestGenOptions& options = {});

}  // namespace dlp::atpg
