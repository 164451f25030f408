#include "atpg/generate.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>

#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "obs/telemetry.h"

namespace dlp::atpg {

std::string_view ndetect_mix_name(NDetectMix mix) {
    switch (mix) {
        case NDetectMix::Mixed: return "mixed";
        case NDetectMix::Random: return "random";
        case NDetectMix::WeightedRandom: return "weighted";
        case NDetectMix::Deterministic: return "deterministic";
    }
    return "mixed";
}

NDetectMix parse_ndetect_mix(std::string_view name) {
    if (name == "mixed") return NDetectMix::Mixed;
    if (name == "random") return NDetectMix::Random;
    if (name == "weighted") return NDetectMix::WeightedRandom;
    if (name == "deterministic") return NDetectMix::Deterministic;
    throw std::invalid_argument(
        "unknown ndetect mix '" + std::string(name) +
        "' (accepted: mixed, random, weighted, deterministic)");
}

double TestGenResult::coverage() const {
    const std::size_t total = first_detected_at.size();
    const std::size_t testable = total - redundant;
    return testable == 0 ? 0.0
                         : static_cast<double>(detected) /
                               static_cast<double>(testable);
}

double TestGenResult::raw_coverage() const {
    const std::size_t total = first_detected_at.size();
    return total == 0 ? 0.0
                      : static_cast<double>(detected) /
                            static_cast<double>(total);
}

TestGenResult generate_test_set(const Circuit& circuit,
                                std::vector<StuckAtFault> faults,
                                const TestGenOptions& options) {
    TestGenResult result;
    const int ndetect = std::max(1, options.ndetect);
    result.ndetect = ndetect;
    if (!options.untestable.empty() &&
        options.untestable.size() != faults.size())
        throw std::invalid_argument(
            "generate_test_set: untestable mask size mismatch");
    gatesim::LevelizedFaultSimulator sim(circuit, std::move(faults),
                                         options.parallel, ndetect,
                                         options.untestable);
    gatesim::RandomPatternGenerator rng(options.seed);
    const support::RunBudget& budget = options.budget;
    const int backtrack_limit = budget.atpg_backtracks > 0
                                    ? budget.atpg_backtracks
                                    : options.backtrack_limit;

    // Phase 1: random patterns until they stop paying off.  The budget is
    // enforced inside the simulator's apply(): only the applied prefix of a
    // block is recorded, so a stopped run's sequence is a bit-identical
    // prefix of the unbounded run's (rng.vectors generates per vector, so a
    // truncated block is the full block's prefix).
    {
        DLP_OBS_SPAN(random_span, "atpg.random_phase");
        int barren = 0;
        while (result.random_count < options.max_random &&
               barren < options.stale_blocks &&
               sim.detected_count() < sim.faults().size()) {
            const int take =
                std::min(options.random_block,
                         options.max_random - result.random_count);
            const auto block = rng.vectors(circuit, take);
            const auto ares =
                sim.apply(std::span<const Vector>(block), budget);
            result.vectors.insert(result.vectors.end(), block.begin(),
                                  block.begin() + ares.vectors_applied);
            result.random_count += ares.vectors_applied;
            if (ares.stop != support::StopReason::None) {
                result.stop = ares.stop;
                break;
            }
            barren = ares.newly_detected == 0 ? barren + 1 : 0;
        }
        DLP_OBS_SPAN_NOTE(random_span, std::to_string(result.random_count) +
                                           " random vectors");
    }

    // Phase 2: PODEM for each remaining fault, with fault dropping.  The
    // targets are searched speculatively on every worker, claimed in fault
    // order, and committed strictly in that order under the serial rules
    // (docs/ENGINES.md, "PODEM targets in parallel").  A search reads only
    // its fault, so the outcome is the serial one: a target that a
    // committed vector already detects is dropped without an x-fill draw,
    // and every other one draws its x-fill word at commit.  A budget stop
    // ends the phase at the first target (in fault order) that it reaches,
    // so the sequence stays a prefix of the unbounded run's; faults never
    // reached stay Undetected.
    result.status.assign(sim.faults().size(), FaultStatus::Undetected);
    // Statically proven-untestable faults are settled before any PODEM
    // targeting: Redundant upfront, with neither a search nor an x-fill
    // draw, so the corrected run spends its randomness only on faults that
    // can still matter.
    if (!options.untestable.empty())
        for (std::size_t fi = 0; fi < result.status.size(); ++fi)
            if (options.untestable[fi]) {
                result.status[fi] = FaultStatus::Redundant;
                ++result.redundant;
            }
    if (result.stop == support::StopReason::None) {
        // Per-target counters: each PODEM search is one deterministic unit,
        // counted when it commits, so totals are thread-count-invariant.
        // Searches that commit drops (their fault was detected meanwhile,
        // or they lie past a stop) are engine diagnostics.
        DLP_OBS_SPAN(podem_span, "atpg.podem_phase");
        DLP_OBS_COUNTER(c_targets, "atpg.targets");
        DLP_OBS_COUNTER(c_backtracks, "atpg.backtracks");
        DLP_OBS_COUNTER(c_implications, "atpg.implications");
        DLP_OBS_COUNTER(c_gate_evals, "atpg.gate_evals");
        DLP_OBS_COUNTER(c_aborts, "atpg.aborts");
        DLP_OBS_COUNTER(c_redundant, "atpg.redundant");
        DLP_OBS_COUNTER(c_discarded, "parallel.atpg_discarded");

        std::vector<std::size_t> targets;
        for (std::size_t fi : sim.undetected())
            if (result.status[fi] != FaultStatus::Redundant)
                targets.push_back(fi);
        const std::size_t n = targets.size();
        // Pending: unclaimed or being searched; Dropped: detected when its
        // turn to be claimed came; Done: searched, result in `found`.
        enum class Slot : std::uint8_t { Pending, Dropped, Done };
        std::vector<Slot> slot(n, Slot::Pending);
        std::vector<PodemResult> found(n);
        const auto detected = [&](std::size_t t) {
            return sim.first_detected_at()[targets[t]] >= 0;
        };

        // Everything below but the searches runs under `mu`: claims,
        // commits (the simulator, the rng, `result`) and the slots.
        std::mutex mu;
        std::size_t next = 0;       // first unclaimed target
        std::size_t committed = 0;  // first uncommitted target
        bool ended = false;         // a commit stopped the phase
        support::StopReason claim_stop = support::StopReason::None;

        const auto commit_ready = [&] {
            while (!ended && committed < n &&
                   slot[committed] != Slot::Pending) {
                const std::size_t t = committed++;
                if (slot[t] == Slot::Dropped) continue;
                if (detected(t)) {  // detected by an earlier commit
                    DLP_OBS_ADD(c_discarded, 1);
                    continue;
                }
                const std::size_t fi = targets[t];
                const PodemResult& res = found[t];
                const std::uint64_t x_fill = rng.next_word();
                DLP_OBS_ADD(c_targets, 1);
                DLP_OBS_ADD(c_backtracks, res.backtracks);
                DLP_OBS_ADD(c_implications, res.implications);
                DLP_OBS_ADD(c_gate_evals, res.gate_evals);
                if (res.status == PodemResult::Status::Aborted &&
                    res.stop == support::StopReason::None)
                    DLP_OBS_ADD(c_aborts, 1);
                if (res.status == PodemResult::Status::Redundant)
                    DLP_OBS_ADD(c_redundant, 1);
                if (res.stop != support::StopReason::None) {
                    // Interrupted mid-search: the fault's real outcome is
                    // unknown, so it stays untargeted rather than Aborted.
                    result.stop = res.stop;
                    ended = true;
                    break;
                }
                switch (res.status) {
                    case PodemResult::Status::TestFound: {
                        const Vector v = fill_cube(res.cube, x_fill);
                        const auto ares = sim.apply(std::span(&v, 1), budget);
                        if (ares.vectors_applied == 0) {
                            // Vector cap reached: the test cannot join the
                            // sequence, so the fault stays untargeted.
                            result.stop = ares.stop;
                            ended = true;
                            break;
                        }
                        result.vectors.push_back(v);
                        ++result.deterministic_count;
                        break;
                    }
                    case PodemResult::Status::Redundant:
                        result.status[fi] = FaultStatus::Redundant;
                        ++result.redundant;
                        break;
                    case PodemResult::Status::Aborted:
                        result.status[fi] = FaultStatus::Aborted;
                        ++result.aborted;
                        break;
                }
            }
        };

        // One worker: commit what is ready, claim the next target still
        // undetected (the budget is checked before each claim), search it
        // unlocked on the worker's own Podem, store, repeat.
        const Testability testability = compute_testability(circuit);
        const int workers = static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(
                parallel::resolve_threads(options.parallel)),
            std::max<std::size_t>(n, 1)));
        std::vector<std::optional<Podem>> podems(
            static_cast<std::size_t>(workers));
        const auto work = [&](int w) {
            std::unique_lock<std::mutex> lock(mu);
            try {
                for (;;) {
                    commit_ready();
                    while (next < n && detected(next))
                        slot[next++] = Slot::Dropped;
                    if (ended || next == n ||
                        claim_stop != support::StopReason::None)
                        return;
                    claim_stop = budget.check();
                    if (claim_stop != support::StopReason::None) return;
                    const std::size_t t = next++;
                    const StuckAtFault fault = sim.faults()[targets[t]];
                    lock.unlock();
                    auto& podem = podems[static_cast<std::size_t>(w)];
                    if (!podem) podem.emplace(circuit, testability);
                    PodemResult res =
                        podem->generate(fault, backtrack_limit, 0, &budget);
                    lock.lock();
                    found[t] = std::move(res);
                    slot[t] = Slot::Done;
                }
            } catch (...) {
                if (!lock.owns_lock()) lock.lock();
                ended = true;  // stop the other workers claiming
                throw;
            }
        };
        parallel::parallel_for(
            static_cast<std::size_t>(workers), 1,
            [&](std::size_t, std::size_t, int w) { work(w); }, workers);

        // A stop seen at a claim ends the phase only if a target it kept
        // from being searched is still undetected (the serial loop would
        // have skipped a detected one and gone on).
        if (!ended && claim_stop != support::StopReason::None)
            for (std::size_t t = committed; t < n; ++t)
                if (!detected(t)) {
                    result.stop = claim_stop;
                    break;
                }
        for (std::size_t t = committed; t < n; ++t)
            if (slot[t] == Slot::Done) DLP_OBS_ADD(c_discarded, 1);
    }

    // Phase 3: n-detection top-up.  Phases 1-2 are untouched by the target
    // (their loop conditions read first-detection stats only), so the
    // sequence so far is exactly the n=1 sequence; this phase only appends,
    // re-targeting detected faults until each has `ndetect` distinct
    // detecting vectors.  All sources draw from the same rng stream, so
    // the whole sequence stays deterministic in options.seed and a budget
    // stop still yields a bit-identical prefix of the unbounded run.
    if (ndetect > 1 && result.stop == support::StopReason::None) {
        DLP_OBS_SPAN(topup_span, "atpg.ndetect_topup");
        // Distinctness: a fault's count must reflect distinct tests, so
        // top-up vectors are deduplicated against the whole sequence.
        std::set<Vector> seen(result.vectors.begin(), result.vectors.end());

        const auto counts_sum = [&] {
            long long s = 0;
            for (int c : sim.detection_counts()) s += c;
            return s;
        };
        // Detected faults still below target; undetectable faults (never
        // detected: redundant, aborted, untargeted) cannot be topped up.
        const auto under_target = [&] {
            std::size_t n = 0;
            const auto counts = sim.detection_counts();
            const auto first = sim.first_detected_at();
            for (std::size_t fi = 0; fi < counts.size(); ++fi)
                if (first[fi] >= 0 && counts[fi] < ndetect) ++n;
            return n;
        };
        const auto apply_block = [&](std::vector<Vector>& block,
                                     int& counter) {
            if (block.empty()) return;
            const auto ares =
                sim.apply(std::span<const Vector>(block), budget);
            result.vectors.insert(result.vectors.end(), block.begin(),
                                  block.begin() + ares.vectors_applied);
            counter += ares.vectors_applied;
            if (ares.stop != support::StopReason::None)
                result.stop = ares.stop;
        };
        // One biased random vector: each input is 1 with probability w8/8.
        const auto biased_vector = [&](int w8) {
            Vector v(circuit.inputs().size());
            for (std::size_t i = 0; i < v.size(); ++i)
                v[i] = (rng.next_word() & 7) <
                       static_cast<std::uint64_t>(w8);
            return v;
        };

        // Random sources: blocks until the counts stop improving for
        // stale_blocks rounds (same barren rule as phase 1, but graded on
        // count progress), capped at max_random vectors per source.  The
        // weighted source cycles input biases 1/8, 1/4, 3/4, 7/8, 1/2 —
        // extreme biases excite the long AND/OR chains uniform vectors
        // miss (the classic weighted-random argument).
        const auto random_rounds = [&](bool weighted, int& counter) {
            static constexpr int kBias[] = {1, 2, 6, 7, 4};
            int barren = 0;
            int generated = 0;
            int bias_idx = 0;
            while (result.stop == support::StopReason::None &&
                   under_target() > 0 && barren < options.stale_blocks &&
                   generated < options.max_random) {
                const support::StopReason stop = budget.check();
                if (stop != support::StopReason::None) {
                    result.stop = stop;
                    break;
                }
                const int take = std::min(options.random_block,
                                          options.max_random - generated);
                const int w8 = kBias[bias_idx++ % 5];
                std::vector<Vector> block;
                for (int k = 0; k < take; ++k) {
                    Vector v = weighted ? biased_vector(w8)
                                        : rng.next_vector(circuit);
                    if (seen.insert(v).second) block.push_back(std::move(v));
                }
                generated += take;
                const long long before = counts_sum();
                apply_block(block, counter);
                barren = counts_sum() == before ? barren + 1 : 0;
            }
        };

        // Deterministic source: PODEM re-targets each under-target fault
        // with a fresh random x-fill per attempt, so repeated targets yield
        // distinct tests; passes repeat while any vector lands.  A fault
        // whose generated tests keep colliding with the set (fully
        // specified test cubes) just stops contributing.
        const auto deterministic_passes = [&] {
            constexpr int kFutileAttempts = 4;
            Podem podem(circuit, compute_testability(circuit));
            bool progress = true;
            while (progress && result.stop == support::StopReason::None &&
                   under_target() > 0) {
                progress = false;
                auto counts = sim.detection_counts();
                const auto first = sim.first_detected_at();
                for (std::size_t fi = 0; fi < counts.size(); ++fi) {
                    if (first[fi] < 0 || counts[fi] >= ndetect) continue;
                    const support::StopReason stop = budget.check();
                    if (stop != support::StopReason::None) {
                        result.stop = stop;
                        return;
                    }
                    for (int attempt = 0; attempt < kFutileAttempts;
                         ++attempt) {
                        const auto res =
                            podem.generate(sim.faults()[fi], backtrack_limit,
                                           rng.next_word(), &budget);
                        if (res.stop != support::StopReason::None) {
                            result.stop = res.stop;
                            return;
                        }
                        if (res.status != PodemResult::Status::TestFound)
                            break;  // aborted: the search would just repeat
                        if (!seen.insert(res.test).second)
                            continue;  // duplicate: retry with a new x-fill
                        std::vector<Vector> one{res.test};
                        apply_block(one, result.topup_deterministic_count);
                        if (result.stop != support::StopReason::None)
                            return;
                        progress = true;
                        counts = sim.detection_counts();
                        break;
                    }
                }
            }
        };

        switch (options.ndetect_mix) {
            case NDetectMix::Mixed:
                random_rounds(false, result.topup_random_count);
                random_rounds(true, result.topup_weighted_count);
                deterministic_passes();
                break;
            case NDetectMix::Random:
                random_rounds(false, result.topup_random_count);
                break;
            case NDetectMix::WeightedRandom:
                random_rounds(true, result.topup_weighted_count);
                break;
            case NDetectMix::Deterministic:
                deterministic_passes();
                break;
        }
        DLP_OBS_SPAN_NOTE(
            topup_span,
            std::to_string(result.topup_random_count +
                           result.topup_weighted_count +
                           result.topup_deterministic_count) +
                " top-up vectors");
    }

    result.detected = sim.detected_count();
    result.first_detected_at.assign(sim.first_detected_at().begin(),
                                    sim.first_detected_at().end());
    result.detection_counts = sim.detection_counts();
    result.nth_detected_at = sim.nth_detected_at();
    for (size_t i = 0; i < result.first_detected_at.size(); ++i)
        if (result.first_detected_at[i] >= 1)
            result.status[i] = FaultStatus::Detected;
    for (FaultStatus s : result.status)
        if (s == FaultStatus::Undetected) ++result.untargeted;
    return result;
}

}  // namespace dlp::atpg
