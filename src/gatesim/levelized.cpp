#include "gatesim/levelized.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "obs/telemetry.h"

namespace dlp::gatesim {

using netlist::GateType;
using netlist::NetId;

LevelizedCircuit levelize(const Circuit& circuit) {
    LevelizedCircuit lc;
    lc.net_count = circuit.gate_count();
    lc.type.reserve(lc.net_count);
    lc.level.reserve(lc.net_count);
    lc.is_output.assign(lc.net_count, 0);

    // Pass 1: types, levels, fanin CSR (gate order is topological by
    // construction, so a single forward sweep levelizes).
    std::size_t edge_count = 0;
    for (NetId g = 0; g < lc.net_count; ++g)
        edge_count += circuit.gate(g).fanin.size();
    lc.fanin_begin.reserve(lc.net_count + 1);
    lc.fanin.reserve(edge_count);
    lc.fanin_begin.push_back(0);
    for (NetId g = 0; g < lc.net_count; ++g) {
        const netlist::Gate& gate = circuit.gate(g);
        lc.type.push_back(gate.type);
        std::int32_t lv = 0;
        for (NetId f : gate.fanin) {
            lc.fanin.push_back(f);
            lv = std::max(lv, lc.level[f] + 1);
        }
        lc.level.push_back(gate.type == GateType::Input ? 0 : lv);
        lc.fanin_begin.push_back(static_cast<std::uint32_t>(lc.fanin.size()));
        lc.depth = std::max(lc.depth, lc.level.back());
    }

    // Pass 2: fanout CSR (counting sort over the fanin rows), one entry
    // per reading gate — a gate reading the same net on two pins still
    // gets one fanout entry, so event pushes stay naturally deduplicated.
    std::vector<std::uint32_t> counts(lc.net_count + 1, 0);
    const auto each_read = [&](auto&& fn) {
        for (NetId g = 0; g < lc.net_count; ++g) {
            const auto b = lc.fanin_begin[g], e = lc.fanin_begin[g + 1];
            for (auto i = b; i < e; ++i) {
                const NetId f = lc.fanin[i];
                bool dup = false;
                for (auto j = b; j < i; ++j) dup |= lc.fanin[j] == f;
                if (!dup) fn(f, g);
            }
        }
    };
    each_read([&](NetId f, NetId) { ++counts[f + 1]; });
    for (std::size_t n = 1; n <= lc.net_count; ++n) counts[n] += counts[n - 1];
    lc.fanout_begin = counts;
    lc.fanout.resize(counts.back());
    each_read([&](NetId f, NetId g) { lc.fanout[counts[f]++] = g; });

    // Pass 3: the level-major evaluation schedule (counting sort by level;
    // NetId order within a level is preserved, so the schedule is stable).
    std::vector<std::uint32_t> per_level(
        static_cast<std::size_t>(lc.depth) + 2, 0);
    for (NetId g = 0; g < lc.net_count; ++g)
        if (lc.type[g] != GateType::Input)
            ++per_level[static_cast<std::size_t>(lc.level[g]) + 1];
    for (std::size_t l = 1; l < per_level.size(); ++l)
        per_level[l] += per_level[l - 1];
    lc.level_begin = per_level;
    lc.schedule.resize(per_level.back());
    for (NetId g = 0; g < lc.net_count; ++g)
        if (lc.type[g] != GateType::Input)
            lc.schedule[per_level[static_cast<std::size_t>(lc.level[g])]++] =
                g;

    lc.inputs.assign(circuit.inputs().begin(), circuit.inputs().end());
    lc.outputs.assign(circuit.outputs().begin(), circuit.outputs().end());
    for (NetId po : lc.outputs) lc.is_output[po] = 1;
    return lc;
}

std::uint64_t eval_flat(const LevelizedCircuit& lc, NetId g,
                        const std::uint64_t* words) {
    const std::uint32_t b = lc.fanin_begin[g];
    const std::uint32_t e = lc.fanin_begin[g + 1];
    switch (lc.type[g]) {
        case GateType::Buf:
            return words[lc.fanin[b]];
        case GateType::Not:
            return ~words[lc.fanin[b]];
        case GateType::And:
        case GateType::Nand: {
            std::uint64_t v = ~0ULL;
            for (std::uint32_t i = b; i < e; ++i) v &= words[lc.fanin[i]];
            return lc.type[g] == GateType::And ? v : ~v;
        }
        case GateType::Or:
        case GateType::Nor: {
            std::uint64_t v = 0ULL;
            for (std::uint32_t i = b; i < e; ++i) v |= words[lc.fanin[i]];
            return lc.type[g] == GateType::Or ? v : ~v;
        }
        case GateType::Xor:
        case GateType::Xnor: {
            std::uint64_t v = 0ULL;
            for (std::uint32_t i = b; i < e; ++i) v ^= words[lc.fanin[i]];
            return lc.type[g] == GateType::Xor ? v : ~v;
        }
        case GateType::Input:
            break;
    }
    throw std::invalid_argument("eval_flat: not a logic gate");
}

namespace {

/// Below this width a level is evaluated inline: the per-region pool
/// overhead would dwarf a few hundred word operations.
constexpr std::size_t kParallelLevelThreshold = 4096;

}  // namespace

void simulate_block_levelized(const LevelizedCircuit& lc,
                              const PatternBlock& block,
                              std::vector<std::uint64_t>& words,
                              parallel::ParallelOptions parallel) {
    words.resize(lc.net_count);
    for (std::size_t i = 0; i < lc.inputs.size(); ++i)
        words[lc.inputs[i]] = block.input_words[i];
    for (int l = 1; l <= lc.depth; ++l) {
        const std::uint32_t b = lc.level_begin[static_cast<std::size_t>(l)];
        const std::uint32_t e =
            lc.level_begin[static_cast<std::size_t>(l) + 1];
        const auto eval_range = [&](std::size_t rb, std::size_t re) {
            for (std::size_t i = rb; i < re; ++i) {
                const NetId g = lc.schedule[b + i];
                words[g] = eval_flat(lc, g, words.data());
            }
        };
        const std::size_t width = e - b;
        // Gates within a level are independent (all fanins sit at lower
        // levels) and write disjoint slots, so a parallel sweep is
        // bit-identical to the serial one.
        if (width >= kParallelLevelThreshold &&
            parallel::resolve_threads(parallel) > 1)
            parallel::parallel_for(
                width, kParallelLevelThreshold / 8,
                [&](std::size_t rb, std::size_t re, int) {
                    eval_range(rb, re);
                },
                parallel.threads);
        else
            eval_range(0, width);
    }
}

LevelizedFaultSimulator::LevelizedFaultSimulator(
    const Circuit& circuit, std::vector<StuckAtFault> faults,
    parallel::ParallelOptions parallel, int ndetect,
    std::vector<std::uint8_t> untestable)
    : circuit_(circuit),
      lc_(levelize(circuit)),
      faults_(std::move(faults)),
      ndetect_(std::max(1, ndetect)),
      untestable_(std::move(untestable)),
      parallel_(parallel) {
    if (!untestable_.empty() && untestable_.size() != faults_.size())
        throw std::invalid_argument(
            "LevelizedFaultSimulator: untestable mask size mismatch");
    detected_at_.assign(faults_.size(), -1);
    counts_.assign(faults_.size(), 0);
    nth_at_.assign(faults_.size(), -1);
}

std::uint64_t LevelizedFaultSimulator::propagate(
    std::size_t fi, Scratch& s, std::span<const std::uint64_t> good) const {
    const StuckAtFault& fault = faults_[fi];
    const std::uint64_t stuck_word = fault.stuck_value ? ~0ULL : 0ULL;
    const std::uint64_t epoch = ++s.epoch;

    // Faulty value of a net: the divergent word when stamped this fault,
    // else the shared good-machine word.
    const auto value = [&](NetId n) {
        return s.stamp[n] == epoch ? s.value[n] : good[n];
    };
    int lo = lc_.depth + 1;
    int hi = 0;  ///< highest level with a queued gate; the cone's frontier
    const auto push_readers = [&](NetId n) {
        const std::uint32_t b = lc_.fanout_begin[n];
        const std::uint32_t e = lc_.fanout_begin[n + 1];
        for (std::uint32_t i = b; i < e; ++i) {
            const NetId r = lc_.fanout[i];
            if (s.queued[r] == epoch) continue;
            s.queued[r] = epoch;
            const int lv = lc_.level[r];
            s.bucket[static_cast<std::size_t>(lv)].push_back(r);
            lo = std::min(lo, lv);
            hi = std::max(hi, lv);
        }
    };

    std::uint64_t diff = 0;
    std::uint32_t forced_pin = ~0u;  ///< CSR slot carrying the stuck word
    if (fault.is_stem()) {
        s.value[fault.net] = stuck_word;
        s.stamp[fault.net] = epoch;
        if (lc_.is_output[fault.net]) diff |= stuck_word ^ good[fault.net];
        push_readers(fault.net);
    } else {
        forced_pin = lc_.fanin_begin[fault.reader] +
                     static_cast<std::uint32_t>(fault.pin);
        s.queued[fault.reader] = epoch;
        const int lv = lc_.level[fault.reader];
        s.bucket[static_cast<std::size_t>(lv)].push_back(fault.reader);
        lo = hi = lv;
    }

    // Strict level order: every fanin of a level-l gate lives below l, so
    // each activated gate is final after one evaluation.  Fanout pushes
    // always target higher levels, so bucket[l] is complete when reached.
    // `hi` chases the frontier — the loop ends as soon as the cone dies
    // instead of scanning the remaining (empty) levels of a deep circuit.
    for (int l = lo; l <= hi; ++l) {
        auto& bucket = s.bucket[static_cast<std::size_t>(l)];
        for (const NetId g : bucket) {
            const std::uint32_t b = lc_.fanin_begin[g];
            const std::uint32_t e = lc_.fanin_begin[g + 1];
            std::uint64_t v;
            const auto operand = [&](std::uint32_t i) {
                return i == forced_pin ? stuck_word : value(lc_.fanin[i]);
            };
            switch (lc_.type[g]) {
                case GateType::Buf:
                    v = operand(b);
                    break;
                case GateType::Not:
                    v = ~operand(b);
                    break;
                case GateType::And:
                case GateType::Nand:
                    v = ~0ULL;
                    for (std::uint32_t i = b; i < e; ++i) v &= operand(i);
                    if (lc_.type[g] == GateType::Nand) v = ~v;
                    break;
                case GateType::Or:
                case GateType::Nor:
                    v = 0ULL;
                    for (std::uint32_t i = b; i < e; ++i) v |= operand(i);
                    if (lc_.type[g] == GateType::Nor) v = ~v;
                    break;
                case GateType::Xor:
                case GateType::Xnor:
                    v = 0ULL;
                    for (std::uint32_t i = b; i < e; ++i) v ^= operand(i);
                    if (lc_.type[g] == GateType::Xnor) v = ~v;
                    break;
                case GateType::Input:
                default:
                    continue;  // unreachable: inputs have no fanin edges
            }
            if (v == good[g]) continue;  // reconverged: cone ends here
            s.value[g] = v;
            s.stamp[g] = epoch;
            if (lc_.is_output[g]) diff |= v ^ good[g];
            push_readers(g);
        }
        bucket.clear();
        // Once lane 0 differs at an output the detection index (lowest
        // differing lane, always inside the lane mask) can't improve —
        // deeper propagation only ORs in higher lanes.  Drain the pending
        // buckets and stop.  Only valid at a target of 1: n-detection
        // counts every set lane, so the full diff word must be computed.
        if (ndetect_ == 1 && (diff & 1ULL)) {
            for (int r = l + 1; r <= hi; ++r)
                s.bucket[static_cast<std::size_t>(r)].clear();
            break;
        }
    }
    return diff;
}

support::ApplyResult LevelizedFaultSimulator::apply(
    std::span<const Vector> vectors, const support::RunBudget& budget) {
    const int before_applied = vectors_applied_;
    support::ApplyResult result;
    const std::size_t allowed =
        budget.allowed_vectors(vectors.size(), vectors_applied_);
    if (allowed < vectors.size()) {
        vectors = vectors.first(allowed);
        result.stop = support::StopReason::VectorBudget;
    }

    // A worker's scratch is built the first time it runs a chunk: a call
    // made inside another parallel region runs inline on worker 0 only.
    const int workers = parallel::resolve_threads(parallel_);
    std::vector<Scratch> scratch(static_cast<std::size_t>(workers));
    const std::size_t grain = std::max<std::size_t>(
        16, faults_.size() / (static_cast<std::size_t>(workers) * 8));

    // Gate-level telemetry (counted at block boundaries →
    // thread-count-invariant), plus the engine's own span.
    DLP_OBS_SPAN(apply_span, "gatesim.levelized.apply");
    DLP_OBS_COUNTER(c_vectors, "faultsim.gate.vectors");
    DLP_OBS_COUNTER(c_blocks, "faultsim.gate.blocks");
    DLP_OBS_COUNTER(c_dropped, "faultsim.gate.dropped");
    DLP_OBS_GAUGE(g_remaining, "faultsim.gate.remaining");

    std::vector<std::uint64_t> good;
    std::size_t completed = 0;
    for (std::size_t base = 0; base < vectors.size(); base += 64) {
        // Budget checked at block boundaries only: a stopped call commits
        // a whole number of blocks (the shared prefix contract).
        const support::StopReason stop = budget.check();
        if (stop != support::StopReason::None) {
            result.stop = stop;
            break;
        }
        const std::size_t take = std::min<std::size_t>(64, vectors.size() - base);
        const PatternBlock block =
            pack_vectors(circuit_, vectors.subspan(base, take));
        simulate_block_levelized(lc_, block, good, parallel_);
        const std::uint64_t lane_mask =
            take == 64 ? ~0ULL : (1ULL << take) - 1;

        parallel::parallel_for(
            faults_.size(), grain,
            [&](std::size_t fb, std::size_t fe, int w) {
                Scratch& s = scratch[static_cast<std::size_t>(w)];
                if (s.bucket.empty()) {
                    s.value.assign(lc_.net_count, 0);
                    s.stamp.assign(lc_.net_count, 0);
                    s.queued.assign(lc_.net_count, 0);
                    s.bucket.resize(static_cast<std::size_t>(lc_.depth) + 1);
                }
                for (std::size_t fi = fb; fi < fe; ++fi) {
                    if (counts_[fi] >= ndetect_) continue;  // fault dropping
                    if (!untestable_.empty() && untestable_[fi])
                        continue;  // statically proven undetectable
                    const StuckAtFault& fault = faults_[fi];
                    if (fault.is_stem()) {
                        // Not excited in any valid lane: no propagation.
                        const std::uint64_t stuck_word =
                            fault.stuck_value ? ~0ULL : 0ULL;
                        if (((stuck_word ^ good[fault.net]) & lane_mask) == 0)
                            continue;
                    }
                    const std::uint64_t diff =
                        propagate(fi, s, good) & lane_mask;
                    if (diff != 0) {
                        // Every set lane is one detecting vector
                        // position (as in the naive oracle); the count
                        // saturates at the target and the target-reaching
                        // lane is the `need`-th set bit of diff.
                        const int block_base =
                            before_applied + static_cast<int>(base);
                        if (detected_at_[fi] < 0)
                            detected_at_[fi] =
                                block_base + std::countr_zero(diff) + 1;
                        const int need = ndetect_ - counts_[fi];
                        const int got = std::popcount(diff);
                        if (got >= need) {
                            std::uint64_t d = diff;
                            for (int i = 1; i < need; ++i) d &= d - 1;
                            nth_at_[fi] =
                                block_base + std::countr_zero(d) + 1;
                            counts_[fi] = ndetect_;
                        } else {
                            counts_[fi] += got;
                        }
                    }
                }
            },
            parallel_.threads);
        completed = base + take;
        DLP_OBS_ADD(c_vectors, static_cast<long long>(take));
        DLP_OBS_ADD(c_blocks, 1);
    }
    vectors_applied_ += static_cast<int>(completed);
    int newly_detected = 0;
    std::size_t still_undetected = 0;
    for (int at : detected_at_) {
        if (at > before_applied) ++newly_detected;
        if (at < 0) ++still_undetected;
    }
    result.newly_detected = newly_detected;
    result.vectors_applied = static_cast<int>(completed);
    DLP_OBS_ADD(c_dropped, newly_detected);
    DLP_OBS_SET(g_remaining, static_cast<double>(still_undetected));
    if (result.stop != support::StopReason::None)
        DLP_OBS_ANNOTATE("stopped: " +
                         std::string(support::stop_reason_name(result.stop)));
    return result;
}

}  // namespace dlp::gatesim
