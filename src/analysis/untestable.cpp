#include "analysis/untestable.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>

#include "analysis/implication.h"
#include "gatesim/levelized.h"
#include "obs/telemetry.h"
#include "support/env.h"

namespace dlp::analysis {

namespace {

using gatesim::LevelizedCircuit;
using gatesim::StuckAtFault;
using netlist::GateType;
using netlist::kNoNet;

int controlling_value(GateType t) {
    switch (t) {
        case GateType::And:
        case GateType::Nand:
            return 0;
        case GateType::Or:
        case GateType::Nor:
            return 1;
        default:
            return -1;
    }
}

/// How a fault fares under one pivot assumption.
enum class Verdict : std::uint8_t {
    Detectable,   ///< no undetectability argument — the pivot fails
    Vacuous,      ///< the closure conflicted (constant line)
    Unexcitable,  ///< site forced to the stuck value
    Blocked,      ///< exact: entry gate cut by a forced side pin
    BlockedCandidate  ///< cheap sweep says unobservable; needs cone check
};

/// Per-branch working state for one pivot assumption.
struct BranchState {
    const Closure* closure = nullptr;
    std::vector<std::int8_t> val;   ///< -1 unknown, else forced value
    std::vector<std::uint8_t> obs;  ///< cheap cone-oblivious observability
    std::vector<std::uint8_t> ctrl_pins;  ///< forced-controlling pin count
};

/// Rebuilds the dense value/observability views for a closure.  The
/// cheap observability sweep counts *every* forced controlling side
/// input as a blocker — an over-approximation of blocking (the sound
/// rule only trusts blockers outside the fault cone), so obs[n] == 1
/// means "certainly not blocked" and obs[n] == 0 only nominates a
/// candidate for the exact cone-aware check.
void build_branch(const LevelizedCircuit& lc, const Closure& closure,
                  BranchState& b) {
    b.closure = &closure;
    b.val.assign(lc.net_count, -1);
    if (closure.conflict) return;
    for (const Literal& l : closure.forced)
        b.val[l.net] = l.value ? 1 : 0;

    b.ctrl_pins.assign(lc.net_count, 0);
    for (NetId g = 0; g < lc.net_count; ++g) {
        const int c = controlling_value(lc.type[g]);
        if (c < 0) continue;
        std::uint8_t count = 0;
        for (std::uint32_t i = lc.fanin_begin[g]; i < lc.fanin_begin[g + 1];
             ++i)
            if (b.val[lc.fanin[i]] == c && count < 255) ++count;
        b.ctrl_pins[g] = count;
    }

    b.obs.assign(lc.net_count, 0);
    for (NetId n = lc.net_count; n-- > 0;) {
        if (lc.is_output[n]) {
            b.obs[n] = 1;
            continue;
        }
        for (std::uint32_t i = lc.fanout_begin[n];
             i < lc.fanout_begin[n + 1] && !b.obs[n]; ++i) {
            const NetId g = lc.fanout[i];
            if (!b.obs[g]) continue;
            const int c = controlling_value(lc.type[g]);
            if (c < 0 || b.ctrl_pins[g] == 0) {
                b.obs[n] = 1;
                continue;
            }
            if (b.val[n] != c) continue;  // all forced pins are side pins
            // n itself is forced controlling: a *side* blocker exists
            // only if some other pin net is forced controlling too.
            for (std::uint32_t j = lc.fanin_begin[g];
                 j < lc.fanin_begin[g + 1]; ++j) {
                const NetId m = lc.fanin[j];
                if (m != n && b.val[m] == c) goto blocked;
            }
            b.obs[n] = 1;
        blocked:;
        }
    }
}

/// Exact entry-gate cut for a branch fault: a side pin of the reading
/// gate forced to its controlling value pins the gate output in both
/// machines (upstream of the entry nothing differs, so side pins carry
/// their good values).  Fills `blocker` when it returns true.
bool entry_blocked(const LevelizedCircuit& lc, const BranchState& b,
                   const StuckAtFault& f, Literal* blocker) {
    const NetId r = f.reader;
    const int c = controlling_value(lc.type[r]);
    if (c < 0) return false;
    for (std::uint32_t i = lc.fanin_begin[r]; i < lc.fanin_begin[r + 1];
         ++i) {
        const int pin = static_cast<int>(i - lc.fanin_begin[r]);
        if (pin == f.pin) continue;
        const NetId m = lc.fanin[i];
        if (b.val[m] == c) {
            if (blocker) *blocker = Literal{m, c != 0};
            return true;
        }
    }
    return false;
}

/// Epoch-stamped net set: clear() is O(1), so the exact blocking check
/// costs its cone, not the circuit.
struct NetSet {
    std::vector<std::uint64_t> stamp;
    std::uint64_t epoch = 0;

    explicit NetSet(std::size_t nets) : stamp(nets, 0) {}
    void clear() { ++epoch; }
    void insert(NetId n) { stamp[n] = epoch; }
    bool contains(NetId n) const { return stamp[n] == epoch; }
};

/// Exact cone-aware propagation check: computes the set D of nets that
/// can differ between the good and the faulty machine, trusting only
/// blockers outside D (a net outside D carries its good value in both
/// machines, so a forced controlling side input outside D pins the gate
/// in both).  Returns true iff no primary output lands in D; collects
/// the blocking literals actually used.  `in_d` is scratch.
bool verify_blocked(const LevelizedCircuit& lc, const BranchState& b,
                    NetId seed, NetSet& in_d,
                    std::vector<Literal>* blockers) {
    if (lc.is_output[seed]) return false;
    in_d.clear();
    in_d.insert(seed);
    for (NetId g = seed + 1; g < lc.net_count; ++g) {
        if (lc.type[g] == GateType::Input) continue;
        bool any_d = false;
        for (std::uint32_t i = lc.fanin_begin[g]; i < lc.fanin_begin[g + 1];
             ++i)
            if (in_d.contains(lc.fanin[i])) {
                any_d = true;
                break;
            }
        if (!any_d) continue;
        const int c = controlling_value(lc.type[g]);
        NetId blocker = kNoNet;
        if (c >= 0)
            for (std::uint32_t i = lc.fanin_begin[g];
                 i < lc.fanin_begin[g + 1]; ++i) {
                const NetId m = lc.fanin[i];
                if (!in_d.contains(m) && b.val[m] == c) {
                    blocker = m;
                    break;
                }
            }
        if (blocker != kNoNet) {
            if (blockers)
                blockers->push_back(Literal{blocker, c != 0});
            continue;
        }
        if (lc.is_output[g]) return false;
        in_d.insert(g);
    }
    return true;
}

/// First-pass verdict for fault `f` under one branch (exact except for
/// BlockedCandidate, which verify_blocked must confirm).
Verdict classify(const LevelizedCircuit& lc, const BranchState& b,
                 const StuckAtFault& f) {
    if (b.closure->conflict) return Verdict::Vacuous;
    if (b.val[f.net] == (f.stuck_value ? 1 : 0)) return Verdict::Unexcitable;
    if (f.is_stem())
        return b.obs[f.net] ? Verdict::Detectable : Verdict::BlockedCandidate;
    if (entry_blocked(lc, b, f, nullptr)) return Verdict::Blocked;
    return b.obs[f.reader] ? Verdict::Detectable : Verdict::BlockedCandidate;
}

/// Assembles the evidence for one confirmed branch.  The chain is the
/// pivot's closure derivation, shared across every fault it proves.
BranchEvidence make_evidence(
    const LevelizedCircuit& lc, const BranchState& b, NetSet& in_d,
    const StuckAtFault& f, Literal assumption, Verdict v,
    const std::shared_ptr<const std::vector<ProofStep>>& chain) {
    BranchEvidence e;
    e.assumption = assumption;
    e.chain = chain;
    switch (v) {
        case Verdict::Vacuous:
            e.reason = BranchReason::Conflict;
            break;
        case Verdict::Unexcitable:
            e.reason = BranchReason::Unexcitable;
            break;
        case Verdict::Blocked: {
            e.reason = BranchReason::Blocked;
            Literal blk;
            entry_blocked(lc, b, f, &blk);
            e.blockers.push_back(blk);
            break;
        }
        case Verdict::BlockedCandidate: {
            e.reason = BranchReason::Blocked;
            const NetId seed = f.is_stem() ? f.net : f.reader;
            verify_blocked(lc, b, seed, in_d, &e.blockers);
            break;
        }
        case Verdict::Detectable:
            break;  // unreachable: only confirmed branches get evidence
    }
    return e;
}

/// One worker's scratch: its own engine, the two closures it refills
/// for every pivot, the two branch views and the difference set of the
/// exact blocking check.
struct Worker {
    Worker(const LevelizedCircuit& lc, ImplicationEngine::Options options)
        : engine(lc, options), in_d(lc.net_count) {}

    ImplicationEngine engine;
    Closure c0;
    Closure c1;
    BranchState b0;
    BranchState b1;
    NetSet in_d;
};

/// One pivot's outcome, kept until its turn to commit comes.
struct PivotResult {
    bool constant_line = false;
    std::uint64_t implications = 0;  ///< this pivot's two closures
    std::uint64_t learned = 0;
    /// Faults the pivot proves (index into the fault list), in fault
    /// order.  A lower pivot committed meanwhile may have proven some.
    struct Candidate {
        std::size_t fault;
        UntestableProof proof;
    };
    std::vector<Candidate> candidates;
};

/// Computes the closures of `pivot` = 0 and 1 and the proofs they give.
/// `marks` are the committed marks, read as a filter only: every mark
/// set so far comes from a lower pivot, which wins the fault anyway.
/// They change under concurrent commits, so every access is atomic.
PivotResult search_pivot(const LevelizedCircuit& lc,
                         std::span<const StuckAtFault> faults,
                         std::span<std::uint8_t> marks, Worker& w,
                         NetId pivot) {
    PivotResult out;
    const std::uint64_t implications = w.engine.implications();
    const std::uint64_t learned = w.engine.learned();
    w.engine.close(Literal{pivot, false}, w.c0);
    w.engine.close(Literal{pivot, true}, w.c1);
    const Closure& c0 = w.c0;
    const Closure& c1 = w.c1;
    out.implications = w.engine.implications() - implications;
    out.learned = w.engine.learned() - learned;
    out.constant_line = c0.conflict || c1.conflict;
    // A closure that only derived its own assumption cannot block or
    // de-excite anything beyond what every other pivot sees; still scan
    // (constant-line vacuous branches matter), but the common
    // single-literal/no-conflict case short-circuits the fault loop.
    if (!c0.conflict && !c1.conflict && c0.forced.size() <= 1 &&
        c1.forced.size() <= 1)
        return out;
    BranchState& b0 = w.b0;
    BranchState& b1 = w.b1;
    build_branch(lc, c0, b0);
    build_branch(lc, c1, b1);
    // Shared per-pivot chains, copied out of the worker's closures (to
    // their exact size) only if a proof lands.
    std::shared_ptr<const std::vector<ProofStep>> chain0;
    std::shared_ptr<const std::vector<ProofStep>> chain1;

    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (std::atomic_ref<std::uint8_t>(marks[fi]).load(
                std::memory_order_relaxed))
            continue;  // a lower pivot proved it
        const StuckAtFault& f = faults[fi];
        const Verdict v0 = classify(lc, b0, f);
        if (v0 == Verdict::Detectable) continue;
        const Verdict v1 = classify(lc, b1, f);
        if (v1 == Verdict::Detectable) continue;
        // Confirm the cheap-sweep candidates with the exact cone-aware
        // check before certifying anything.
        const NetId seed = f.is_stem() ? f.net : f.reader;
        if (v0 == Verdict::BlockedCandidate &&
            !verify_blocked(lc, b0, seed, w.in_d, nullptr))
            continue;
        if (v1 == Verdict::BlockedCandidate &&
            !verify_blocked(lc, b1, seed, w.in_d, nullptr))
            continue;

        if (!chain0) {
            chain0 = std::make_shared<const std::vector<ProofStep>>(c0.chain);
            chain1 = std::make_shared<const std::vector<ProofStep>>(c1.chain);
        }
        UntestableProof proof;
        proof.fault = f;
        proof.pivot = pivot;
        proof.b0 = make_evidence(lc, b0, w.in_d, f, Literal{pivot, false},
                                 v0, chain0);
        proof.b1 = make_evidence(lc, b1, w.in_d, f, Literal{pivot, true},
                                 v1, chain1);
        out.candidates.push_back({fi, std::move(proof)});
    }
    return out;
}

}  // namespace

AnalysisResult find_untestable(const netlist::Circuit& circuit,
                               std::span<const StuckAtFault> faults,
                               const AnalysisOptions& options) {
    const LevelizedCircuit lc = gatesim::levelize(circuit);
    ImplicationEngine::Options eopt;
    eopt.learn = options.learn;
    eopt.learn_limit = options.learn_limit;

    AnalysisResult result;
    result.untestable.assign(faults.size(), 0);
    result.stats.pivots_total = lc.net_count;

    // Totals are added as pivots commit, so they match the stats at any
    // worker count.
    DLP_OBS_COUNTER(c_pivots, "analysis.pivots");
    DLP_OBS_COUNTER(c_implications, "analysis.implications");
    DLP_OBS_COUNTER(c_learned, "analysis.learned");
    DLP_OBS_COUNTER(c_constant, "analysis.constant_lines");
    DLP_OBS_COUNTER(c_proofs, "analysis.proofs");

    // Pivots are claimed in net-id order and searched on every worker;
    // results are committed strictly in that order, the first proving
    // pivot winning a fault (docs/ANALYSIS.md, "Pivots in parallel").
    // Everything but the searches runs under `mu`: claims, commits
    // (`result`, the marks' writes) and the result slots.
    const std::size_t n = lc.net_count;
    std::vector<std::optional<PivotResult>> found(n);
    std::mutex mu;
    std::size_t next = 0;  // first unclaimed pivot
    std::size_t& committed = result.stats.pivots_done;
    bool ended = false;  // a budget stop or an exception

    const auto commit_ready = [&] {
        for (; committed < n && found[committed]; ++committed) {
            PivotResult& r = *found[committed];
            std::size_t proofs = 0;
            for (PivotResult::Candidate& cand : r.candidates) {
                std::atomic_ref<std::uint8_t> mark(
                    result.untestable[cand.fault]);
                if (mark.load(std::memory_order_relaxed))
                    continue;  // first pivot wins
                mark.store(1, std::memory_order_relaxed);
                result.proofs.push_back(std::move(cand.proof));
                ++proofs;
            }
            result.stats.proofs += proofs;
            result.stats.implications += r.implications;
            result.stats.learned += r.learned;
            result.stats.constant_lines += r.constant_line ? 1 : 0;
            DLP_OBS_ADD(c_pivots, 1);
            DLP_OBS_ADD(c_implications, static_cast<long long>(r.implications));
            DLP_OBS_ADD(c_learned, static_cast<long long>(r.learned));
            DLP_OBS_ADD(c_constant, r.constant_line ? 1 : 0);
            DLP_OBS_ADD(c_proofs, static_cast<long long>(proofs));
            found[committed].reset();
        }
    };

    // One worker: claim the next pivot (the budget is checked before
    // each claim), search it unlocked on the worker's own engine, store
    // the result and commit what is ready, repeat.
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(parallel::resolve_threads(options.parallel)),
        std::max<std::size_t>(n, 1)));
    std::vector<std::optional<Worker>> scratch(
        static_cast<std::size_t>(workers));
    const auto work = [&](int w) {
        std::unique_lock<std::mutex> lock(mu);
        try {
            for (;;) {
                if (ended || next == n) return;
                const support::StopReason stop = options.budget.check();
                if (stop != support::StopReason::None) {
                    result.stop = stop;
                    ended = true;
                    return;
                }
                const NetId pivot = static_cast<NetId>(next++);
                lock.unlock();
                auto& s = scratch[static_cast<std::size_t>(w)];
                if (!s) s.emplace(lc, eopt);
                PivotResult r =
                    search_pivot(lc, faults, result.untestable, *s, pivot);
                lock.lock();
                found[pivot] = std::move(r);
                commit_ready();
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
    return result;
}

bool analysis_enabled_from_env() {
    // Recognized off-spellings disable the pass; garbage throws
    // support::EnvError instead of silently leaving it on.
    return support::env_flag("DLPROJ_ANALYSIS", true);
}

}  // namespace dlp::analysis
