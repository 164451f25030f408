// Weighted switch-level fault simulation over a vector sequence.
//
// Produces the paper's two realistic coverage measures:
//   theta(k) - weighted coverage, eq (6): detected weight / total weight
//   Gamma(k) - unweighted coverage: detected count / total count
// using static voltage detection: a fault is detected by vector k only if
// some primary output settles to a *definite* logic value that differs from
// the fault-free value (X is never a detection).
//
// Each fault's circuit keeps its own node state across the sequence (charge
// retention), tracked as a sparse divergence from the fault-free state so
// the per-vector cost is proportional to the divergent region, not the
// whole chip.
//
// Propagation is event-driven from the fault-free state: a fault-vector
// starts from the good node values, solves the fault's seed components
// (its site and every component holding retained divergent charge) in the
// static topological order of channel-connected components (CCCs), and
// re-solves a component only when a node value it reads changed.  Without
// a feedback loop every component's value is a function of final inputs,
// so this reaches the unique fixpoint SwitchSim::step_faulty computes.  A
// bridge whose merged components reach themselves through gate
// dependencies can have several fixpoints; for such a fault only the loop
// (the components reachable from the bridge that also reach back to it)
// restarts from X and is solved to its least fixpoint before anything
// downstream, matching the reference's ternary least-fixpoint semantics.
// Every fault-free component, in the loop or not, is a lookup in its
// compiled response table (SwitchSim::table_row), which is exact for any
// gate values and retained charge.  The fault's own components - each seed
// unit, a bridge-merged group or a single seed component - keep a response
// table of their own, filled lazily: the transistor-level solver runs only
// on a row of read-set values (SwitchSim::solve_reads) the unit has not
// seen before, and a repeated row is a lookup.
//
// A floating gate with no definite level (SwitchSim::gate_float_unknown)
// can only weaken good values to X, so no static voltage test detects it
// (docs/ENGINES.md, "Faults that only weaken").  Such a fault is never
// simulated: it gets no seed units or loop set, and its detection and
// IDDQ indices stay -1, which is what simulating it would give.
//
// Fault simulations are independent given the fault-free trace, so apply()
// fans faults out across the shared thread pool (parallel/parallel_for.h):
// the good-machine states for a batch of vectors are computed once (one
// levelized pass per vector, SwitchSim::settle) and shared read-only, each
// worker owns a scratch state pair, and every per-fault slot (detected_at_,
// iddq_at_, divergence, response rows) is written only by the worker that
// owns that fault.  Detection indices are per-fault vector positions,
// never completion order, so all results are bit-identical to the serial
// path for any worker count.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/progress.h"
#include "support/cancel.h"
#include "switchsim/switch_sim.h"

namespace dlp::switchsim {

using Vector = std::vector<bool>;

/// A fault with its extraction weight w_j = A_j * D_j.
struct WeightedFault {
    SwitchFault fault;
    double weight = 1.0;
    std::string name;
};

class SwitchFaultSimulator {
public:
    SwitchFaultSimulator(const SwitchSim& sim,
                         std::vector<WeightedFault> faults,
                         parallel::ParallelOptions parallel = {});

    /// Worker count for subsequent apply() calls (0 = scoped/env default).
    void set_parallel(parallel::ParallelOptions parallel) {
        parallel_ = parallel;
    }
    /// Observer called after each simulated vector batch (stage
    /// "switch-sim", done/total in vectors), from the coordinating thread.
    void set_progress(parallel::ProgressFn progress) {
        progress_ = std::move(progress);
    }

    /// Applies vectors in sequence (appending); returns newly detected
    /// fault count.  Detected faults are dropped.
    int apply(std::span<const Vector> vectors);

    /// Budget-aware apply: the budget is checked before every vector batch
    /// and `budget.max_vectors` caps the cumulative sequence.  A stopped
    /// call commits whole batches only, so all recorded state (detection
    /// indices, charge-retention divergence, coverage curves) is a
    /// bit-identical prefix of the unbounded run's.
    support::ApplyResult apply(std::span<const Vector> vectors,
                               const support::RunBudget& budget);

    std::span<const WeightedFault> faults() const { return faults_; }
    std::span<const int> first_detected_at() const {
        return detected_at_;
    }

    /// First vector at which an IDDQ (quiescent current) measurement flags
    /// the fault: a bridge whose shorted nets are driven to opposite values
    /// conducts statically and raises IDDQ, independent of any logic flip.
    /// Opens have no current signature (-1).  This implements the paper's
    /// conclusion that current testing must complement voltage testing.
    std::span<const int> iddq_detected_at() const {
        return iddq_at_;
    }

    int vectors_applied() const { return vectors_applied_; }

    double total_weight() const { return total_weight_; }
    double weighted_coverage() const;    ///< theta after all vectors
    double unweighted_coverage() const;  ///< Gamma after all vectors

    /// theta(k) for k = 1..vectors_applied().
    std::vector<double> weighted_coverage_curve() const;
    /// Gamma(k) for k = 1..vectors_applied().
    std::vector<double> unweighted_coverage_curve() const;
    /// theta(k) when voltage and IDDQ detection are combined.
    std::vector<double> weighted_coverage_curve_with_iddq() const;

    /// Component re-solves skipped because a component hit
    /// SimParams::max_sweeps solves in one fault-vector (its last value
    /// stands).  Zero unless a feedback loop fails to settle.
    long long cap_hits() const { return cap_hits_; }

private:
    struct PerFault {
        std::vector<std::pair<NodeId, SV>> divergence;  ///< faulty != good
        std::vector<std::int32_t> seed_comps;
        std::vector<std::int32_t> merged;  ///< bridge-merged comp group
        /// Components restarted from X every vector: the feedback loop
        /// through `merged` (plus any fault-free cycle the fault reaches).
        std::vector<std::int32_t> loop;
        std::vector<NodeId> ends;  ///< bridge end nodes (a, b[, c])
        std::uint32_t unit_begin = 0;  ///< this fault's units_ range
        std::uint32_t unit_end = 0;
        /// SwitchSim::gate_float_unknown: never simulated, never detected.
        bool weakening = false;
    };

    /// One solve group of a fault (the merged group, or one seed
    /// component) and its lazily filled response table.
    struct SeedUnit {
        std::int32_t comp = -1;  ///< queue key: the component or merged[0]
        /// Read-set size (its nets at unit_reads_[read_begin...]), or -1
        /// when the unit reads more than kMaxRowReads nets and keeps the
        /// solver.
        std::int32_t read_count = -1;
        std::uint32_t read_begin = 0;
        std::uint32_t stride = 0;  ///< row words: key, then node bytes
        /// Rows of `stride` words: the key (read-set values as base-3
        /// digits, first net least significant), then one byte per group
        /// node in SwitchSim's table encoding.  Released on detection.
        std::vector<std::uint64_t> rows;
    };
    /// Most read nets a row key holds: 3^40 < 2^64.
    static constexpr int kMaxRowReads = 40;

    /// Per-worker scratch, reused across faults.  Between faults cur ==
    /// good and prev == good_prev of the vector being simulated; the
    /// per-component marks are valid only when stamped with the current
    /// fault's epoch, so nothing is cleared or allocated per fault.
    /// Cache-line aligned: one worker's counters must not share a line
    /// with the next worker's state pointers (depending on heap layout,
    /// that false sharing made the 16-vector synth_2k cell up to 40 %
    /// slower at 4 threads).
    struct alignas(64) Scratch {
        SwitchSim::State cur;
        SwitchSim::State prev;
        std::vector<std::uint64_t> queued;   ///< comp in the queue @ epoch
        std::vector<std::uint64_t> touched;  ///< comp solved or reset @ epoch
        std::vector<std::uint64_t> grouped;  ///< comp in `merged` @ epoch
        std::vector<std::uint64_t> looped;   ///< comp in `loop` @ epoch
        std::vector<int> visits;             ///< solves, valid if touched
        std::vector<std::int32_t> touched_list;
        /// Bucket queue by level: loop components in [0, depth), the rest
        /// in [depth, 2 * depth).
        std::vector<std::vector<std::int32_t>> bucket;
        std::vector<SV> before;
        std::vector<SV> before_prev;
        std::vector<NodeId> nodes;
        std::uint64_t epoch = 0;
        long long solves = 0;
        long long table_hits = 0;
        long long fault_rows = 0;
        long long fault_row_hits = 0;
        long long loop_restarts = 0;
        long long cap_hits = 0;
    };

    void simulate_fault(std::size_t fi, int vector_index, Scratch& s,
                        const SwitchSim::State& good,
                        const SwitchSim::State& good_prev);

    /// `unit`'s response row for the read-set values in s.cur: one byte
    /// per group node, as in a compiled table.  A new row is solved once
    /// per uniform prev value; s.cur and s.prev are left as they were.
    const std::uint8_t* unit_row(SeedUnit& unit,
                                 std::span<const std::int32_t> group,
                                 Scratch& s,
                                 const SwitchSim::FaultView& fv) const;

    void check_iddq(std::size_t fi, int vector_index,
                    const SwitchSim::State& good);

    /// Derives each fault's feedback loop set from the fault-free CCC
    /// graph SwitchSim levels.
    void compile_components();

    const SwitchSim* sim_;
    std::vector<WeightedFault> faults_;
    std::vector<PerFault> per_fault_;
    std::vector<SeedUnit> units_;        ///< every fault's, fault by fault
    std::vector<NodeId> unit_reads_;     ///< every unit's read set
    std::vector<int> detected_at_;
    std::vector<int> iddq_at_;
    double total_weight_ = 0.0;

    long long cap_hits_ = 0;

    SwitchSim::State good_;          ///< fault-free state after the sequence
    std::vector<char> po_mask_;      ///< node -> is a PO node
    int vectors_applied_ = 0;
    parallel::ParallelOptions parallel_;
    parallel::ProgressFn progress_;
};

}  // namespace dlp::switchsim
