#include "switchsim/switch_fault_sim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.h"

namespace dlp::switchsim {

namespace {

/// Rows a seed unit's store holds before it grows on a worker: c432
/// builds 21,704 rows over a 1287-vector run, about three per fault.
constexpr size_t kReservedRows = 4;

}  // namespace

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

    long long weakening = 0;
    for (size_t fi = 0; fi < faults_.size(); ++fi) {
        const SwitchFault& f = faults_[fi].fault;
        total_weight_ += faults_[fi].weight;
        PerFault& pf = per_fault_[fi];
        pf.unit_begin = pf.unit_end = static_cast<std::uint32_t>(units_.size());
        // Never detected and never simulated: no seeds, units or loop set.
        pf.weakening = sim.gate_float_unknown(f);
        if (pf.weakening) {
            ++weakening;
            continue;
        }
        const auto add_seed = [&](NodeId n) {
            const std::int32_t c =
                sim.component_of()[static_cast<size_t>(n)];
            if (c >= 0 && std::find(pf.seed_comps.begin(),
                                    pf.seed_comps.end(),
                                    c) == pf.seed_comps.end())
                pf.seed_comps.push_back(c);
        };
        switch (f.kind) {
            case SwitchFault::Kind::Bridge:
                pf.ends = {f.a, f.b};
                if (f.c >= 0) pf.ends.push_back(f.c);
                for (NodeId n : pf.ends) add_seed(n);
                if (pf.seed_comps.size() >= 2) pf.merged = pf.seed_comps;
                break;
            case SwitchFault::Kind::TransistorOpen:
            case SwitchFault::Kind::GateFloat:
                for (int t : f.transistors) {
                    const auto& tr = net.transistors[static_cast<size_t>(t)];
                    add_seed((tr.source == SwitchNetlist::kGnd ||
                              tr.source == SwitchNetlist::kVdd)
                                 ? tr.drain
                                 : tr.source);
                }
                break;
            case SwitchFault::Kind::Gross:
            case SwitchFault::Kind::None:
                break;
        }

        // Seed units: the merged group solves as one, any other seed
        // component alone.  Their read sets and row stores are made here,
        // on the constructing thread, so the rows workers fill stay in
        // this thread's heap rather than in per-thread malloc arenas.
        SwitchSim::FaultView fv;
        fv.fault = &f;
        const auto add_unit = [&](std::span<const std::int32_t> group) {
            SeedUnit u;
            u.comp = group[0];
            const std::vector<NodeId> reads = sim.solve_reads(group, fv);
            if (reads.size() <= static_cast<size_t>(kMaxRowReads)) {
                size_t nodes = 0;
                for (std::int32_t c : group)
                    nodes += sim.component_nodes(c).size();
                u.read_count = static_cast<std::int32_t>(reads.size());
                u.read_begin = static_cast<std::uint32_t>(unit_reads_.size());
                u.stride = static_cast<std::uint32_t>(1 + (nodes + 7) / 8);
                unit_reads_.insert(unit_reads_.end(), reads.begin(),
                                   reads.end());
                u.rows.reserve(kReservedRows * u.stride);
            }
            units_.push_back(std::move(u));
        };
        if (!pf.merged.empty())
            add_unit(pf.merged);
        else
            for (const std::int32_t& c : pf.seed_comps)
                add_unit(std::span(&c, 1));
        pf.unit_end = static_cast<std::uint32_t>(units_.size());
    }
    DLP_OBS_COUNTER(c_weakening, "faultsim.switch.weakening_faults");
    DLP_OBS_ADD(c_weakening, weakening);
    compile_components();

    good_ = sim.initial_state();
}

void SwitchFaultSimulator::compile_components() {
    const SwitchSim& sim = *sim_;
    const size_t nc = static_cast<size_t>(sim.component_count());
    std::vector<std::vector<std::int32_t>> drivers(nc);
    for (std::int32_t c = 0; c < sim.component_count(); ++c)
        for (std::int32_t r : sim.readers(c))
            drivers[static_cast<size_t>(r)].push_back(c);
    const bool acyclic = sim.acyclic();
    // Loop set per fault: the components forward-reachable from the fault
    // site that reach back to a cycle - the bridge's own merged group when
    // it reaches itself, or a fault-free cycle.  No changing component
    // outside the set feeds into it, so solving the set first, from X, is
    // exact.  `reach` need only cover the components that can lie on such
    // a path.
    std::vector<char> reach(nc, 0);
    std::vector<char> in_loop(nc, 0);
    std::vector<std::int32_t> reached;
    std::vector<std::int32_t> stack;
    for (size_t fi = 0; fi < faults_.size(); ++fi) {
        PerFault& pf = per_fault_[fi];
        if (acyclic && pf.merged.empty()) continue;
        for (std::int32_t c : pf.seed_comps) stack.push_back(c);
        if (pf.seed_comps.empty())  // bridged fixed nodes: their readers
            for (NodeId n : pf.ends) {
                if (n == SwitchNetlist::kGnd || n == SwitchNetlist::kVdd)
                    continue;
                for (std::int32_t r : sim.gate_dependents(n))
                    stack.push_back(r);
            }
        // In an acyclic graph a component at or past the group's deepest
        // level cannot reach back to the group: prune the search there.
        std::int32_t group_depth = 0;
        for (std::int32_t c : pf.merged)
            group_depth = std::max(group_depth, sim.level(c));
        bool group_loops = false;
        for (std::int32_t c : stack)
            if (!reach[static_cast<size_t>(c)]) {
                reach[static_cast<size_t>(c)] = 1;
                reached.push_back(c);
            }
        while (!stack.empty()) {
            const std::int32_t c = stack.back();
            stack.pop_back();
            for (std::int32_t r : sim.readers(c)) {
                const bool in_group =
                    std::find(pf.merged.begin(), pf.merged.end(), r) !=
                    pf.merged.end();
                group_loops |= in_group;
                if (reach[static_cast<size_t>(r)] ||
                    (acyclic && !in_group && sim.level(r) >= group_depth))
                    continue;
                reach[static_cast<size_t>(r)] = 1;
                reached.push_back(r);
                stack.push_back(r);
            }
        }
        if (group_loops) stack = pf.merged;
        if (!acyclic)
            for (std::int32_t c : reached)
                if (sim.in_cyclic_tail(c)) stack.push_back(c);
        for (std::int32_t c : stack) in_loop[static_cast<size_t>(c)] = 1;
        while (!stack.empty()) {
            const std::int32_t c = stack.back();
            stack.pop_back();
            pf.loop.push_back(c);
            for (std::int32_t d : drivers[static_cast<size_t>(c)]) {
                if (!reach[static_cast<size_t>(d)] ||
                    in_loop[static_cast<size_t>(d)])
                    continue;
                in_loop[static_cast<size_t>(d)] = 1;
                stack.push_back(d);
            }
        }
        std::sort(pf.loop.begin(), pf.loop.end());
        for (std::int32_t c : reached) reach[static_cast<size_t>(c)] = 0;
        for (std::int32_t c : pf.loop) in_loop[static_cast<size_t>(c)] = 0;
        reached.clear();
    }
}

void SwitchFaultSimulator::simulate_fault(std::size_t fi, int vector_index,
                                          Scratch& s,
                                          const SwitchSim::State& good,
                                          const SwitchSim::State& good_prev) {
    const SwitchFault& fault = faults_[fi].fault;
    if (fault.kind == SwitchFault::Kind::Gross) {
        detected_at_[fi] = vector_index;  // fails any test immediately
        return;
    }
    if (fault.kind == SwitchFault::Kind::None) return;  // pure pad float: X
    PerFault& pf = per_fault_[fi];
    SwitchSim::State& cur = s.cur;
    SwitchSim::State& prev = s.prev;

    SwitchSim::FaultView fv;
    fv.fault = &fault;
    const std::uint64_t epoch = ++s.epoch;
    s.touched_list.clear();

    // Patch the scratch previous-state with this fault's retained charge.
    for (const auto& [node, value] : pf.divergence)
        prev[static_cast<size_t>(node)] = value;

    // A bridge-merged group is solved as one unit, queued under its first
    // component at the lowest level among its members: without a loop its
    // inputs never change, and every reader lies above that level.
    const std::int32_t depth = sim_->depth();
    std::int32_t group_level = depth;
    for (std::int32_t c : pf.merged) {
        s.grouped[static_cast<size_t>(c)] = epoch;
        group_level = std::min(group_level, sim_->level(c));
    }
    for (std::int32_t c : pf.loop) s.looped[static_cast<size_t>(c)] = epoch;

    int lo = static_cast<int>(s.bucket.size());
    int hi = -1;
    const auto enqueue = [&](std::int32_t c) {
        int lv = sim_->level(c);
        if (s.grouped[static_cast<size_t>(c)] == epoch) {
            c = pf.merged[0];
            lv = group_level;
        }
        if (s.queued[static_cast<size_t>(c)] == epoch) return;
        s.queued[static_cast<size_t>(c)] = epoch;
        const int b =
            lv + (s.looped[static_cast<size_t>(c)] == epoch ? 0 : depth);
        s.bucket[static_cast<size_t>(b)].push_back(c);
        lo = std::min(lo, b);
        hi = std::max(hi, b);
    };
    const auto notify_readers = [&](NodeId v) {
        for (std::int32_t dep : sim_->gate_dependents(v)) enqueue(dep);
    };
    const auto touch = [&](std::int32_t c) {
        if (s.touched[static_cast<size_t>(c)] == epoch) return;
        s.touched[static_cast<size_t>(c)] = epoch;
        s.visits[static_cast<size_t>(c)] = 0;
        s.touched_list.push_back(c);
    };

    // Seeds: the fault site, and every component holding divergent charge
    // (its retention inputs differ from the fault-free machine's).
    for (std::int32_t c : pf.seed_comps) enqueue(c);
    for (const auto& [node, value] : pf.divergence)
        if (const std::int32_t c =
                sim_->component_of()[static_cast<size_t>(node)];
            c >= 0)
            enqueue(c);

    // Bridged component-less (fixed) nodes: shorted driven inputs resolve
    // wired-AND (supplies always win), mirroring SwitchSim::run.
    const bool fixed_bridge =
        fault.kind == SwitchFault::Kind::Bridge && pf.seed_comps.empty();
    if (fixed_bridge) {
        SV want = good[static_cast<size_t>(pf.ends[0])];
        bool supply_found = false;
        for (NodeId n : pf.ends)
            if (n == SwitchNetlist::kGnd || n == SwitchNetlist::kVdd) {
                want = good[static_cast<size_t>(n)];
                supply_found = true;
                break;
            }
        if (!supply_found) {
            for (NodeId n : pf.ends) {
                const SV v = good[static_cast<size_t>(n)];
                if (v == want) continue;
                want = (v == SV::X || want == SV::X) ? SV::X : SV::Zero;
            }
        }
        for (const NodeId n : pf.ends) {
            if (n == SwitchNetlist::kGnd || n == SwitchNetlist::kVdd ||
                cur[static_cast<size_t>(n)] == want)
                continue;
            cur[static_cast<size_t>(n)] = want;
            notify_readers(n);
        }
    }

    // Feedback loop: restart from X, as the reference does, so the loop
    // settles to its least fixpoint.  Loop buckets drain before any reader
    // outside the loop is solved.
    if (!pf.loop.empty()) {
        ++s.loop_restarts;
        for (std::int32_t c : pf.loop) {
            touch(c);
            for (NodeId v : sim_->component_nodes(c)) {
                if (cur[static_cast<size_t>(v)] == SV::X) continue;
                cur[static_cast<size_t>(v)] = SV::X;
                notify_readers(v);
            }
            enqueue(c);
        }
    }

    // Drain in level order; a component is re-queued only when a node it
    // reads changes.  Only the fault's own seed units (one holds the
    // merged group) need the solver, once per distinct row of their read
    // set: every other component is fault-free, and its compiled table is
    // a pure function of gate values and prev.
    const int cap = sim_->params().max_sweeps;
    std::vector<SV>& before = s.before;
    const std::span<SeedUnit> units =
        std::span(units_).subspan(pf.unit_begin, pf.unit_end - pf.unit_begin);
    while (lo <= hi) {
        auto& bucket = s.bucket[static_cast<size_t>(lo)];
        if (bucket.empty()) {
            ++lo;
            continue;
        }
        const std::int32_t c = bucket.back();
        bucket.pop_back();
        s.queued[static_cast<size_t>(c)] = 0;

        std::span<const std::int32_t> group(&c, 1);
        if (s.grouped[static_cast<size_t>(c)] == epoch) group = pf.merged;
        for (std::int32_t gc : group) touch(gc);
        if (s.visits[static_cast<size_t>(c)] >= cap) {
            ++s.cap_hits;
            continue;
        }
        ++s.visits[static_cast<size_t>(c)];

        SeedUnit* unit = nullptr;
        for (SeedUnit& u : units)
            if (u.comp == c) {
                unit = &u;
                break;
            }
        const std::uint8_t* row = nullptr;
        if (!unit && sim_->table_of(c) >= 0) {
            ++s.table_hits;
            row = sim_->table_row(c, cur);
        } else if (unit && unit->read_count >= 0) {
            row = unit_row(*unit, group, s, fv);
        }
        if (row) {
            for (std::int32_t gc : group)
                for (NodeId v : sim_->component_nodes(gc)) {
                    const size_t i = static_cast<size_t>(v);
                    const SV nv = SwitchSim::table_value(*row++, prev[i]);
                    if (nv == cur[i]) continue;
                    cur[i] = nv;
                    notify_readers(v);
                }
            continue;
        }
        ++s.solves;
        before.clear();
        for (std::int32_t gc : group)
            for (NodeId v : sim_->component_nodes(gc))
                before.push_back(cur[static_cast<size_t>(v)]);
        sim_->solve_component(cur, prev, group, fv);
        size_t idx = 0;
        for (std::int32_t gc : group)
            for (NodeId v : sim_->component_nodes(gc))
                if (cur[static_cast<size_t>(v)] != before[idx++])
                    notify_readers(v);
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
    for (std::int32_t c : s.touched_list)
        for (NodeId v : sim_->component_nodes(c)) scan_node(v);
    // Every divergent node lies in a touched component, or is a bridged
    // fixed node.
    if (fixed_bridge)
        for (NodeId n : pf.ends)
            if (n != SwitchNetlist::kGnd && n != SwitchNetlist::kVdd)
                scan_node(n);

    if (detected) {
        detected_at_[fi] = vector_index;
        for (SeedUnit& u : units) std::vector<std::uint64_t>().swap(u.rows);
    }
}

const std::uint8_t* SwitchFaultSimulator::unit_row(
    SeedUnit& unit, std::span<const std::int32_t> group, Scratch& s,
    const SwitchSim::FaultView& fv) const {
    SwitchSim::State& cur = s.cur;
    SwitchSim::State& prev = s.prev;
    std::uint64_t key = 0;
    for (std::int32_t i = unit.read_count; i-- > 0;)
        key = 3 * key +
              static_cast<std::uint64_t>(cur[static_cast<size_t>(
                  unit_reads_[unit.read_begin + static_cast<size_t>(i)])]);
    std::vector<std::uint64_t>& rows = unit.rows;
    for (size_t r = 0; r < rows.size(); r += unit.stride)
        if (rows[r] == key) {
            ++s.fault_row_hits;
            return reinterpret_cast<const std::uint8_t*>(rows.data() + r + 1);
        }

    // A new row: solve it once per uniform prev value, each time from the
    // group's current values (a self-gated group reads them), then put
    // the group's cur and prev back.
    ++s.fault_rows;
    const size_t at = rows.size();
    rows.resize(at + unit.stride, 0);
    rows[at] = key;
    auto* entry = reinterpret_cast<std::uint8_t*>(rows.data() + at + 1);
    s.nodes.clear();
    for (std::int32_t gc : group)
        for (NodeId v : sim_->component_nodes(gc)) s.nodes.push_back(v);
    s.before.clear();
    s.before_prev.clear();
    for (NodeId v : s.nodes) {
        s.before.push_back(cur[static_cast<size_t>(v)]);
        s.before_prev.push_back(prev[static_cast<size_t>(v)]);
    }
    for (const SV p : {SV::Zero, SV::One, SV::X}) {
        for (size_t i = 0; i < s.nodes.size(); ++i) {
            cur[static_cast<size_t>(s.nodes[i])] = s.before[i];
            prev[static_cast<size_t>(s.nodes[i])] = p;
        }
        sim_->solve_component(cur, prev, group, fv);
        ++s.solves;
        const int shift = 2 * static_cast<int>(p);
        for (size_t i = 0; i < s.nodes.size(); ++i)
            entry[i] |= static_cast<std::uint8_t>(
                static_cast<unsigned>(cur[static_cast<size_t>(s.nodes[i])])
                << shift);
    }
    for (size_t i = 0; i < s.nodes.size(); ++i) {
        cur[static_cast<size_t>(s.nodes[i])] = s.before[i];
        prev[static_cast<size_t>(s.nodes[i])] = s.before_prev[i];
    }
    return entry;
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
    // balance skewed per-fault cost across workers.  Undetected faults,
    // the expensive ones in late batches, cluster by extraction order, so
    // 32 chunks per worker rather than 8 (c432 flow: parallel efficiency
    // 0.79 -> 0.89 on 4 cores).
    const size_t grain = std::max<size_t>(
        4, faults_.size() / (static_cast<size_t>(workers) * 32));

    // std::vector<bool> is bit-packed; unpack into a plain array for the span.
    std::unique_ptr<bool[]> barr;
    size_t barr_size = 0;
    std::vector<SwitchSim::State> trace;

    // Counted at batch boundaries, so values are thread-count-invariant.
    DLP_OBS_SPAN(apply_span, "switchsim.apply");
    DLP_OBS_COUNTER(c_vectors, "faultsim.switch.vectors");
    DLP_OBS_COUNTER(c_batches, "faultsim.switch.batches");
    DLP_OBS_COUNTER(c_dropped, "faultsim.switch.dropped");
    DLP_OBS_COUNTER(c_solves, "faultsim.switch.solves");
    DLP_OBS_COUNTER(c_table_hits, "faultsim.switch.table_hits");
    DLP_OBS_COUNTER(c_fault_rows, "faultsim.switch.fault_rows");
    DLP_OBS_COUNTER(c_fault_row_hits, "faultsim.switch.fault_row_hits");
    DLP_OBS_COUNTER(c_good_solves, "faultsim.switch.good_solves");
    DLP_OBS_COUNTER(c_restarts, "faultsim.switch.loop_restarts");
    DLP_OBS_COUNTER(c_cap_hits, "faultsim.switch.cap_hits");
    DLP_OBS_GAUGE(g_remaining, "faultsim.switch.remaining");
    DLP_OBS_GAUGE(g_rate, "faultsim.switch.batches_per_sec");
    const std::int64_t t0 = obs::enabled() ? obs::now_ns() : 0;

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
        long long good_solves = 0;
        for (size_t v = 0; v < m; ++v) {
            const Vector& in = vectors[base + v];
            if (barr_size < in.size()) {
                barr = std::make_unique<bool[]>(in.size());
                barr_size = in.size();
            }
            for (size_t i = 0; i < in.size(); ++i) barr[i] = in[i];
            good_solves += sim_->settle(
                trace[v + 1], trace[v],
                std::span<const bool>(barr.get(), in.size()));
        }
        good_ = trace[m];
        DLP_OBS_ADD(c_good_solves, good_solves);

        parallel::parallel_for(
            faults_.size(), grain,
            [&](size_t fb, size_t fe, int w) {
                Scratch& ws = scratch[static_cast<size_t>(w)];
                if (ws.bucket.empty()) {
                    const size_t nc =
                        static_cast<size_t>(sim_->component_count());
                    ws.queued.assign(nc, 0);
                    ws.touched.assign(nc, 0);
                    ws.grouped.assign(nc, 0);
                    ws.looped.assign(nc, 0);
                    ws.visits.assign(nc, 0);
                    ws.bucket.resize(2 * static_cast<size_t>(sim_->depth()));
                }
                for (size_t v = 0; v < m; ++v) {
                    const int k =
                        before_applied + static_cast<int>(base + v) + 1;
                    const SwitchSim::State& good = trace[v + 1];
                    const SwitchSim::State& good_prev = trace[v];
                    bool synced = false;
                    for (size_t fi = fb; fi < fe; ++fi) {
                        if (iddq_at_[fi] < 0) check_iddq(fi, k, good);
                        if (detected_at_[fi] >= 0 ||
                            per_fault_[fi].weakening)
                            continue;
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

        // Per-fault work is independent of the worker that ran it, so the
        // summed solver counters are thread-count-invariant.
        long long solves = 0;
        long long table_hits = 0;
        long long fault_rows = 0;
        long long fault_row_hits = 0;
        long long restarts = 0;
        long long cap_hits = 0;
        for (Scratch& ws : scratch) {
            solves += std::exchange(ws.solves, 0);
            table_hits += std::exchange(ws.table_hits, 0);
            fault_rows += std::exchange(ws.fault_rows, 0);
            fault_row_hits += std::exchange(ws.fault_row_hits, 0);
            restarts += std::exchange(ws.loop_restarts, 0);
            cap_hits += std::exchange(ws.cap_hits, 0);
        }
        cap_hits_ += cap_hits;
        DLP_OBS_ADD(c_solves, solves);
        DLP_OBS_ADD(c_table_hits, table_hits);
        DLP_OBS_ADD(c_fault_rows, fault_rows);
        DLP_OBS_ADD(c_fault_row_hits, fault_row_hits);
        DLP_OBS_ADD(c_restarts, restarts);
        DLP_OBS_ADD(c_cap_hits, cap_hits);

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
    bool saw0 = false;
    bool saw1 = false;
    for (NodeId n : per_fault_[fi].ends) {
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
