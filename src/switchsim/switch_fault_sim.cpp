#include "switchsim/switch_fault_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>

#include "obs/telemetry.h"

namespace dlp::switchsim {

SwitchFaultSimulator::SwitchFaultSimulator(const SwitchSim& sim,
                                           std::vector<WeightedFault> faults,
                                           parallel::ParallelOptions parallel)
    : sim_(&sim), faults_(std::move(faults)), parallel_(parallel) {
    const SwitchNetlist& net = sim.netlist();
    detected_at_.assign(faults_.size(), -1);
    iddq_at_.assign(faults_.size(), -1);
    per_fault_.resize(faults_.size());
    po_mask_.assign(static_cast<size_t>(net.node_count), 0);
    for (NodeId po : net.output_nodes) po_mask_[static_cast<size_t>(po)] = 1;

    const auto comp_of_node = [&](NodeId v) {
        return sim.component_of()[static_cast<size_t>(v)];
    };
    for (size_t fi = 0; fi < faults_.size(); ++fi) {
        const SwitchFault& f = faults_[fi].fault;
        total_weight_ += faults_[fi].weight;
        PerFault& pf = per_fault_[fi];
        switch (f.kind) {
            case SwitchFault::Kind::Bridge: {
                std::vector<NodeId> ends{f.a, f.b};
                if (f.c >= 0) ends.push_back(f.c);
                for (NodeId n : ends) {
                    const std::int32_t c = comp_of_node(n);
                    if (c >= 0 && std::find(pf.seed_comps.begin(),
                                            pf.seed_comps.end(),
                                            c) == pf.seed_comps.end())
                        pf.seed_comps.push_back(c);
                }
                if (pf.seed_comps.size() >= 2) pf.merged = pf.seed_comps;
                break;
            }
            case SwitchFault::Kind::TransistorOpen:
            case SwitchFault::Kind::GateFloat:
                for (int t : f.transistors) {
                    const auto& tr =
                        sim.netlist().transistors[static_cast<size_t>(t)];
                    const NodeId probe =
                        (tr.source == SwitchNetlist::kGnd ||
                         tr.source == SwitchNetlist::kVdd)
                            ? tr.drain
                            : tr.source;
                    const std::int32_t c = comp_of_node(probe);
                    if (c >= 0 &&
                        std::find(pf.seed_comps.begin(), pf.seed_comps.end(),
                                  c) == pf.seed_comps.end())
                        pf.seed_comps.push_back(c);
                }
                break;
            case SwitchFault::Kind::Gross:
            case SwitchFault::Kind::None:
                break;
        }
    }

    good_ = sim.initial_state();
}

void SwitchFaultSimulator::simulate_fault(std::size_t fi, int vector_index,
                                          Scratch& scratch,
                                          const SwitchSim::State& good,
                                          const SwitchSim::State& good_prev) {
    const SwitchFault& fault = faults_[fi].fault;
    if (fault.kind == SwitchFault::Kind::Gross) {
        detected_at_[fi] = vector_index;  // fails any test immediately
        return;
    }
    if (fault.kind == SwitchFault::Kind::None) return;  // pure pad float: X
    PerFault& pf = per_fault_[fi];
    SwitchSim::State& cur = scratch.cur;
    SwitchSim::State& prev = scratch.prev;

    SwitchSim::FaultView fv;
    fv.fault = &fault;

    // Patch the scratch previous-state with this fault's retained charge.
    for (const auto& [node, value] : pf.divergence)
        prev[static_cast<size_t>(node)] = value;

    // Seed the worklist.  A component entering the working set restarts
    // from X, matching the reference simulation's ternary least-fixpoint
    // iteration: bridges can create feedback loops with several fixpoints,
    // and starting from X is the only order-independent choice.
    // Initialization that changes a node's visible value must notify that
    // node's readers, or a component whose solve happens to equal its
    // initialization would never trigger the re-solve of components that
    // already read the mirror value.
    std::deque<std::int32_t> work;
    std::vector<std::int32_t> touched;
    std::vector<NodeId> fixed_overrides;
    std::vector<std::int32_t> pending;
    const auto enqueue = [&pending](std::int32_t c) {
        if (c >= 0) pending.push_back(c);
    };
    const auto drain = [&]() {
        while (!pending.empty()) {
            const std::int32_t c = pending.back();
            pending.pop_back();
            work.push_back(c);
            if (std::find(touched.begin(), touched.end(), c) != touched.end())
                continue;
            touched.push_back(c);
            for (NodeId v : sim_->component_nodes(c)) {
                if (cur[static_cast<size_t>(v)] == SV::X) continue;
                cur[static_cast<size_t>(v)] = SV::X;
                for (std::int32_t dep : sim_->gate_dependents(v))
                    pending.push_back(dep);
            }
        }
    };
    for (std::int32_t c : pf.seed_comps) enqueue(c);
    drain();
    for (const auto& [node, value] : pf.divergence) {
        const std::int32_t c = sim_->component_of()[static_cast<size_t>(node)];
        if (c >= 0)
            enqueue(c);
        else {
            // Divergence at a component-less node (bridged PI): reapply.
            cur[static_cast<size_t>(node)] = value;
            fixed_overrides.push_back(node);
        }
        for (std::int32_t dep : sim_->gate_dependents(node)) enqueue(dep);
        drain();
    }

    // Bridged component-less (fixed) nodes: shorted driven inputs resolve
    // wired-AND (supplies always win), mirroring SwitchSim::run.
    if (fault.kind == SwitchFault::Kind::Bridge &&
        pf.seed_comps.empty()) {
        std::vector<NodeId> ends{fault.a, fault.b};
        if (fault.c >= 0) ends.push_back(fault.c);
        SV want = good[static_cast<size_t>(ends[0])];
        bool supply_found = false;
        for (NodeId n : ends)
            if (n == SwitchNetlist::kGnd || n == SwitchNetlist::kVdd) {
                want = good[static_cast<size_t>(n)];
                supply_found = true;
                break;
            }
        if (!supply_found) {
            for (NodeId n : ends) {
                const SV v = good[static_cast<size_t>(n)];
                if (v == want) continue;
                want = (v == SV::X || want == SV::X) ? SV::X : SV::Zero;
            }
        }
        for (const NodeId n : ends) {
            if (n == SwitchNetlist::kGnd || n == SwitchNetlist::kVdd)
                continue;
            if (cur[static_cast<size_t>(n)] != want) {
                cur[static_cast<size_t>(n)] = want;
                fixed_overrides.push_back(n);
                for (std::int32_t dep : sim_->gate_dependents(n))
                    enqueue(dep);
            }
        }
    }
    drain();

    // Process the worklist to a fixpoint.
    const int cap = sim_->params().max_sweeps;
    std::vector<SV>& before = scratch.before;
    while (!work.empty()) {
        const std::int32_t c = work.front();
        work.pop_front();
        if (scratch.comp_visits[static_cast<size_t>(c)] >= cap) continue;
        ++scratch.comp_visits[static_cast<size_t>(c)];

        std::span<const std::int32_t> group(&c, 1);
        if (!pf.merged.empty() &&
            std::find(pf.merged.begin(), pf.merged.end(), c) !=
                pf.merged.end())
            group = pf.merged;

        before.clear();
        for (std::int32_t gc : group)
            for (NodeId v : sim_->component_nodes(gc))
                before.push_back(cur[static_cast<size_t>(v)]);
        sim_->solve_component(cur, prev, group, fv);
        size_t idx = 0;
        for (std::int32_t gc : group)
            for (NodeId v : sim_->component_nodes(gc)) {
                if (cur[static_cast<size_t>(v)] != before[idx])
                    for (std::int32_t dep : sim_->gate_dependents(v))
                        enqueue(dep);
                ++idx;
            }
        drain();
    }

    // Collect the new divergence, check detection, then repair the scratch
    // arrays back to the fault-free state.
    pf.divergence.clear();
    bool detected = false;
    const NodeId excluded_po =
        fault.po_float >= 0
            ? sim_->netlist().output_nodes[static_cast<size_t>(fault.po_float)]
            : -1;
    const auto scan_node = [&](NodeId v) {
        const SV fv_val = cur[static_cast<size_t>(v)];
        const SV gv = good[static_cast<size_t>(v)];
        if (fv_val != gv) {
            pf.divergence.push_back({v, fv_val});
            if (po_mask_[static_cast<size_t>(v)] && v != excluded_po &&
                fv_val != SV::X && gv != SV::X)
                detected = true;
        }
        cur[static_cast<size_t>(v)] = gv;
        prev[static_cast<size_t>(v)] = good_prev[static_cast<size_t>(v)];
    };
    for (std::int32_t c : touched) {
        scratch.comp_visits[static_cast<size_t>(c)] = 0;
        for (NodeId v : sim_->component_nodes(c)) scan_node(v);
    }
    for (NodeId v : fixed_overrides) scan_node(v);
    // Divergent nodes outside touched comps (from earlier vectors whose
    // comps were not re-solved): still divergent - should not happen since
    // divergence seeds its comps, but repair defensively.
    // (seeded comps are always in `touched`.)

    if (detected) detected_at_[fi] = vector_index;
}

int SwitchFaultSimulator::apply(std::span<const Vector> vectors) {
    return apply(vectors, support::RunBudget{}).newly_detected;
}

support::ApplyResult SwitchFaultSimulator::apply(
    std::span<const Vector> vectors, const support::RunBudget& budget) {
    const int before_applied = vectors_applied_;
    support::ApplyResult result;
    // The vector budget caps the cumulative sequence; a shorter final batch
    // is still a prefix (faulty-machine state and detection indices are per
    // vector, independent of batching).
    const size_t allowed =
        budget.allowed_vectors(vectors.size(), vectors_applied_);
    if (allowed < vectors.size()) {
        vectors = vectors.first(allowed);
        result.stop = support::StopReason::VectorBudget;
    }
    // Vectors are simulated in batches: the fault-free trace of the batch
    // is computed once up front, then faults fan out across workers, each
    // replaying its faults over the whole batch against the shared
    // read-only trace.  kBatch bounds trace memory (kBatch+1 full states).
    constexpr size_t kBatch = 64;
    const int workers = parallel::resolve_threads(parallel_);
    std::vector<Scratch> scratch(static_cast<size_t>(workers));
    // Stealing quantum: coarse enough that the per-chunk state resync cost
    // (two full-state copies per vector) stays negligible, fine enough to
    // balance skewed per-fault cost across workers.
    const size_t grain = std::max<size_t>(
        4, faults_.size() / (static_cast<size_t>(workers) * 8));

    // std::vector<bool> is bit-packed; unpack into a plain array for the span.
    std::unique_ptr<bool[]> barr;
    size_t barr_size = 0;
    std::vector<SwitchSim::State> trace;

    // Counted at batch boundaries, so values are thread-count-invariant.
    DLP_OBS_SPAN(apply_span, "switchsim.apply");
    DLP_OBS_COUNTER(c_vectors, "faultsim.switch.vectors");
    DLP_OBS_COUNTER(c_batches, "faultsim.switch.batches");
    DLP_OBS_COUNTER(c_dropped, "faultsim.switch.dropped");
    DLP_OBS_GAUGE(g_remaining, "faultsim.switch.remaining");
    DLP_OBS_GAUGE(g_rate, "faultsim.switch.batches_per_sec");
#if DLPROJ_OBS_ENABLED
    const std::int64_t t0 = obs::enabled() ? obs::now_ns() : 0;
#endif

    size_t completed = 0;
    for (size_t base = 0; base < vectors.size(); base += kBatch) {
        // Cancellation / deadline: checked at batch boundaries, before the
        // fault-free machine advances, so a stopped call commits a whole
        // number of batches and good_ matches the committed prefix.
        const support::StopReason stop = budget.check();
        if (stop != support::StopReason::None) {
            result.stop = stop;
            break;
        }
        const size_t m = std::min(kBatch, vectors.size() - base);
        // Fault-free trace: trace[v] is the state before the batch's
        // vector v, trace[v+1] the state after it.
        trace.resize(m + 1);
        trace[0] = good_;
        for (size_t v = 0; v < m; ++v) {
            const Vector& in = vectors[base + v];
            if (barr_size < in.size()) {
                barr = std::make_unique<bool[]>(in.size());
                barr_size = in.size();
            }
            for (size_t i = 0; i < in.size(); ++i) barr[i] = in[i];
            sim_->step(good_, std::span<const bool>(barr.get(), in.size()));
            trace[v + 1] = good_;
        }

        parallel::parallel_for(
            faults_.size(), grain,
            [&](size_t fb, size_t fe, int w) {
                Scratch& ws = scratch[static_cast<size_t>(w)];
                if (ws.comp_visits.empty())
                    ws.comp_visits.assign(
                        static_cast<size_t>(sim_->component_count()), 0);
                for (size_t v = 0; v < m; ++v) {
                    const int k =
                        before_applied + static_cast<int>(base + v) + 1;
                    const SwitchSim::State& good = trace[v + 1];
                    const SwitchSim::State& good_prev = trace[v];
                    bool synced = false;
                    for (size_t fi = fb; fi < fe; ++fi) {
                        if (iddq_at_[fi] < 0) check_iddq(fi, k, good);
                        if (detected_at_[fi] >= 0) continue;
                        if (!synced) {
                            // simulate_fault repairs cur/prev back to the
                            // fault-free pair, so one resync per vector
                            // serves every fault in the chunk.
                            ws.cur = good;
                            ws.prev = good_prev;
                            synced = true;
                        }
                        simulate_fault(fi, k, ws, good, good_prev);
                    }
                }
            },
            parallel_.threads);

        completed = base + m;
        DLP_OBS_ADD(c_vectors, static_cast<long long>(m));
        DLP_OBS_ADD(c_batches, 1);
        if (progress_)
            progress_("switch-sim", completed, vectors.size());
    }

    vectors_applied_ += static_cast<int>(completed);
    int newly = 0;
    long long detected_total = 0;
    for (int at : detected_at_) {
        if (at > before_applied) ++newly;
        if (at >= 0) ++detected_total;
    }
    result.newly_detected = newly;
    result.vectors_applied = static_cast<int>(completed);
    DLP_OBS_ADD(c_dropped, newly);
    DLP_OBS_SET(g_remaining, static_cast<double>(faults_.size()) -
                                 static_cast<double>(detected_total));
#if DLPROJ_OBS_ENABLED
    if (t0 != 0) {
        const double secs = static_cast<double>(obs::now_ns() - t0) / 1e9;
        if (secs > 0)
            DLP_OBS_SET(g_rate,
                        std::ceil(static_cast<double>(completed) / 64.0) /
                            secs);
    }
    if (result.stop != support::StopReason::None)
        DLP_OBS_ANNOTATE("stopped: " +
                         std::string(support::stop_reason_name(result.stop)));
#endif
    return result;
}

void SwitchFaultSimulator::check_iddq(std::size_t fi, int vector_index,
                                      const SwitchSim::State& good) {
    const SwitchFault& f = faults_[fi].fault;
    if (f.kind == SwitchFault::Kind::Gross) {
        iddq_at_[fi] = vector_index;  // a supply short conducts always
        return;
    }
    if (f.kind != SwitchFault::Kind::Bridge) return;
    // Elevated quiescent current whenever the defect-free circuit drives
    // any two of the shorted nodes to opposite levels.
    std::vector<NodeId> ends{f.a, f.b};
    if (f.c >= 0) ends.push_back(f.c);
    bool saw0 = false;
    bool saw1 = false;
    for (NodeId n : ends) {
        const SV v = good[static_cast<size_t>(n)];
        saw0 |= v == SV::Zero;
        saw1 |= v == SV::One;
    }
    if (saw0 && saw1) iddq_at_[fi] = vector_index;
}

std::vector<double> SwitchFaultSimulator::weighted_coverage_curve_with_iddq()
    const {
    std::vector<double> add(static_cast<size_t>(vectors_applied_) + 1, 0.0);
    for (size_t i = 0; i < faults_.size(); ++i) {
        int first = detected_at_[i];
        if (iddq_at_[i] >= 1 && (first < 0 || iddq_at_[i] < first))
            first = iddq_at_[i];
        if (first >= 1) add[static_cast<size_t>(first)] += faults_[i].weight;
    }
    std::vector<double> curve(static_cast<size_t>(vectors_applied_));
    double cum = 0.0;
    for (int k = 1; k <= vectors_applied_; ++k) {
        cum += add[static_cast<size_t>(k)];
        curve[static_cast<size_t>(k - 1)] =
            total_weight_ == 0.0 ? 0.0 : cum / total_weight_;
    }
    return curve;
}

double SwitchFaultSimulator::weighted_coverage() const {
    if (total_weight_ == 0.0) return 0.0;
    double hit = 0.0;
    for (size_t i = 0; i < faults_.size(); ++i)
        if (detected_at_[i] >= 0) hit += faults_[i].weight;
    return hit / total_weight_;
}

double SwitchFaultSimulator::unweighted_coverage() const {
    if (faults_.empty()) return 0.0;
    size_t hit = 0;
    for (int d : detected_at_) hit += d >= 0 ? 1 : 0;
    return static_cast<double>(hit) / static_cast<double>(faults_.size());
}

std::vector<double> SwitchFaultSimulator::weighted_coverage_curve() const {
    std::vector<double> add(static_cast<size_t>(vectors_applied_) + 1, 0.0);
    for (size_t i = 0; i < faults_.size(); ++i)
        if (detected_at_[i] >= 1)
            add[static_cast<size_t>(detected_at_[i])] += faults_[i].weight;
    std::vector<double> curve(static_cast<size_t>(vectors_applied_));
    double cum = 0.0;
    for (int k = 1; k <= vectors_applied_; ++k) {
        cum += add[static_cast<size_t>(k)];
        curve[static_cast<size_t>(k - 1)] =
            total_weight_ == 0.0 ? 0.0 : cum / total_weight_;
    }
    return curve;
}

std::vector<double> SwitchFaultSimulator::unweighted_coverage_curve() const {
    std::vector<int> add(static_cast<size_t>(vectors_applied_) + 1, 0);
    for (int d : detected_at_)
        if (d >= 1) ++add[static_cast<size_t>(d)];
    std::vector<double> curve(static_cast<size_t>(vectors_applied_));
    double cum = 0.0;
    for (int k = 1; k <= vectors_applied_; ++k) {
        cum += add[static_cast<size_t>(k)];
        curve[static_cast<size_t>(k - 1)] =
            faults_.empty() ? 0.0
                            : cum / static_cast<double>(faults_.size());
    }
    return curve;
}

}  // namespace dlp::switchsim
