// Levelized bit-parallel stuck-at fault simulation over a flat SoA IR.
//
// compile step (levelize): the per-gate-object netlist::Circuit is lowered
// into arena-style flat arrays — CSR fanin/fanout adjacency, one gate-type
// byte per net, a topological level per net, and an evaluation schedule
// bucketed level by level — so the hot loops touch contiguous memory
// instead of chasing std::string/std::vector gate objects.
//
// run step (LevelizedFaultSimulator): 64 patterns per word, good machine
// evaluated level by level (wide levels fan out across the shared thread
// pool; writes are per-net, so results are worker-count-invariant), then
// faults partitioned across the pool.  Each fault is propagated
// EVENT-DRIVEN through its actually-diverging cone — seed the fault site,
// push reader gates through the CSR fanout lists, evaluate strictly in
// level order (a gate's fanins are all at lower levels, so one evaluation
// per gate suffices), and stop where the faulty words reconverge with the
// good machine — instead of re-evaluating the whole topological suffix.
// Per-fault state is epoch-stamped, so setup cost per fault is O(cone),
// not O(nets).
//
// Detection semantics are bit-identical to the naive oracle
// (sim::engine("naive")): same block boundaries, same budget checks, same
// first-detection lane per fault, per-block fault dropping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gatesim/engine.h"

namespace dlp::gatesim {

/// Flat, topologically levelized compilation of a Circuit.  Net ids are
/// preserved (net j == gate j, as in the source IR), so detection tables
/// and fault lists need no translation.
struct LevelizedCircuit {
    std::size_t net_count = 0;
    int depth = 0;  ///< maximum level (primary inputs are level 0)

    // Per net, indexed by NetId.
    std::vector<netlist::GateType> type;
    std::vector<std::int32_t> level;
    std::vector<std::uint8_t> is_output;

    // CSR fanin adjacency: net g's driving nets are
    // fanin[fanin_begin[g] .. fanin_begin[g+1]), in pin order.
    std::vector<std::uint32_t> fanin_begin;  ///< net_count + 1 offsets
    std::vector<netlist::NetId> fanin;

    // CSR fanout adjacency: the gates reading net n are
    // fanout[fanout_begin[n] .. fanout_begin[n+1]) (one entry per reading
    // gate, deduplicated; pin multiplicity lives in the fanin rows).
    std::vector<std::uint32_t> fanout_begin;  ///< net_count + 1 offsets
    std::vector<netlist::NetId> fanout;

    // Evaluation schedule: every non-input gate, level-major and in NetId
    // order within a level.  Level l spans
    // schedule[level_begin[l] .. level_begin[l + 1]).
    std::vector<netlist::NetId> schedule;
    std::vector<std::uint32_t> level_begin;  ///< depth + 2 offsets

    std::vector<netlist::NetId> inputs;
    std::vector<netlist::NetId> outputs;

    std::size_t logic_gate_count() const {
        return net_count - inputs.size();
    }
};

/// Compiles a circuit; O(nets + edges).
LevelizedCircuit levelize(const Circuit& circuit);

/// Evaluates gate `g` of the compiled circuit over `words` (one 64-lane
/// word per net).  `g` must be a logic gate.
std::uint64_t eval_flat(const LevelizedCircuit& lc, netlist::NetId g,
                        const std::uint64_t* words);

/// Good-machine simulation of a pattern block over the compiled circuit,
/// level by level; `words` is resized to one word per net.  Levels wider
/// than an internal threshold are evaluated in parallel on the shared
/// pool; results are bit-identical for any worker count.
void simulate_block_levelized(const LevelizedCircuit& lc,
                              const PatternBlock& block,
                              std::vector<std::uint64_t>& words,
                              parallel::ParallelOptions parallel = {});

/// The levelized engine session: the production fault simulator, which
/// ATPG and the flow construct directly.
class LevelizedFaultSimulator final : public sim::Session {
public:
    /// `ndetect` is the n-detection target: a fault is dropped only after
    /// `ndetect` vector positions have detected it (1 = classic behavior).
    /// `untestable` (parallel to `faults`; empty = none) marks statically
    /// proven-untestable faults that are never simulated.
    LevelizedFaultSimulator(const Circuit& circuit,
                            std::vector<StuckAtFault> faults,
                            parallel::ParallelOptions parallel = {},
                            int ndetect = 1,
                            std::vector<std::uint8_t> untestable = {});

    std::span<const StuckAtFault> faults() const override { return faults_; }
    std::span<const int> first_detected_at() const override {
        return detected_at_;
    }
    int vectors_applied() const override { return vectors_applied_; }
    support::ApplyResult apply(std::span<const Vector> vectors,
                               const support::RunBudget& budget) override;
    using sim::Session::apply;

    int ndetect_target() const override { return ndetect_; }
    std::vector<int> detection_counts() const override { return counts_; }
    std::vector<int> nth_detected_at() const override { return nth_at_; }

    /// The compiled IR (tests and benches introspect it).
    const LevelizedCircuit& compiled() const { return lc_; }

private:
    /// Per-worker propagation scratch, reused across faults via epoch
    /// stamping (no O(nets) clearing between faults).
    struct Scratch {
        std::vector<std::uint64_t> value;   ///< faulty word, valid @ epoch
        std::vector<std::uint64_t> stamp;   ///< value[] validity epoch
        std::vector<std::uint64_t> queued;  ///< enqueue-dedup epoch
        std::vector<std::vector<netlist::NetId>> bucket;  ///< per level
        std::uint64_t epoch = 0;
    };

    /// Propagates fault `fi` through one good-machine block; returns the
    /// PO difference word (unmasked).
    std::uint64_t propagate(std::size_t fi, Scratch& s,
                            std::span<const std::uint64_t> good) const;

    const Circuit& circuit_;
    LevelizedCircuit lc_;
    std::vector<StuckAtFault> faults_;
    int ndetect_ = 1;
    std::vector<int> detected_at_;
    std::vector<int> counts_;  ///< detections so far, saturated at ndetect_
    std::vector<int> nth_at_;  ///< vector index reaching the target; -1 below
    std::vector<std::uint8_t> untestable_;  ///< skip mask (empty = none)
    int vectors_applied_ = 0;
    parallel::ParallelOptions parallel_;
};

}  // namespace dlp::gatesim
