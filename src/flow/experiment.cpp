#include "flow/experiment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "model/dl_models.h"
#include "model/yield.h"
#include "obs/telemetry.h"

namespace dlp::flow {

std::vector<switchsim::WeightedFault> to_switch_faults(
    const extract::ExtractionResult& extraction,
    const layout::ChipLayout& chip, const switchsim::SwitchNetlist& net) {
    using EK = extract::ExtractedFault::Kind;
    using SK = switchsim::SwitchFault::Kind;

    // Gates of a sink pin: the transistors of the reading instance whose
    // gate is that pin's local net.
    const auto sink_gate_transistors = [&](const layout::Sink& sink,
                                           std::vector<int>& out) {
        const std::int32_t inst = sink.instance;
        const cell::Cell& c = *net.cells[static_cast<size_t>(inst)];
        const int pin_net = c.input_pin(sink.pin).net;
        for (size_t t = 0; t < c.transistors.size(); ++t)
            if (c.transistors[t].gate == pin_net)
                out.push_back(net.global_transistor(inst,
                                                    static_cast<int>(t)));
    };

    std::vector<switchsim::WeightedFault> out;
    out.reserve(extraction.faults.size());
    for (const auto& ef : extraction.faults) {
        switchsim::WeightedFault wf;
        wf.weight = ef.weight;
        wf.name = ef.description;
        // Trapped charge of a floating gate varies per defect instance:
        // assign low/high/mid-band deterministically from the fault
        // identity (3:3:2 - mid-band floats defeat static voltage testing
        // and contribute to the residual defect level).
        switch (std::hash<std::string>{}(ef.description) % 8u) {
            case 0: case 1: case 2:
                wf.fault.float_level = switchsim::SwitchFault::FloatLevel::Low;
                break;
            case 3: case 4: case 5:
                wf.fault.float_level = switchsim::SwitchFault::FloatLevel::High;
                break;
            default:
                wf.fault.float_level = switchsim::SwitchFault::FloatLevel::Mid;
                break;
        }
        switch (ef.kind) {
            case EK::Bridge:
                wf.fault.kind = SK::Bridge;
                wf.fault.a = net.node_of(ef.a);
                wf.fault.b = net.node_of(ef.b);
                if (!ef.c.is_none()) wf.fault.c = net.node_of(ef.c);
                break;
            case EK::Gross:
                wf.fault.kind = SK::Gross;
                break;
            case EK::TransistorOpen:
                wf.fault.kind = SK::TransistorOpen;
                for (const auto& [inst, t] : ef.transistors)
                    wf.fault.transistors.push_back(
                        net.global_transistor(inst, t));
                break;
            case EK::GateFloat:
                wf.fault.kind = SK::GateFloat;
                for (const auto& [inst, t] : ef.transistors)
                    wf.fault.transistors.push_back(
                        net.global_transistor(inst, t));
                break;
            case EK::PoFloat:
                wf.fault.kind = SK::None;
                wf.fault.po_float = ef.po;
                break;
            case EK::NetOpen: {
                wf.fault.kind = SK::GateFloat;
                const auto& sinks = chip.sinks[ef.net];
                if (ef.sink >= 0) {
                    const auto& s = sinks[static_cast<size_t>(ef.sink)];
                    if (s.is_po_pad()) {
                        wf.fault.kind = SK::None;
                        wf.fault.po_float = s.pin;
                    } else {
                        sink_gate_transistors(s, wf.fault.transistors);
                    }
                } else {
                    for (const auto& s : sinks) {
                        if (s.is_po_pad())
                            wf.fault.po_float = s.pin;
                        else
                            sink_gate_transistors(s, wf.fault.transistors);
                    }
                    if (wf.fault.transistors.empty())
                        wf.fault.kind = SK::None;
                }
                break;
            }
        }
        out.push_back(std::move(wf));
    }
    return out;
}

namespace {

/// Samples a coverage curve into fallout points, thinning long curves to
/// keep the model fit balanced across the k axis (log-spaced).
std::vector<size_t> sample_indices(size_t n) {
    std::vector<size_t> idx;
    if (n == 0) return idx;  // interrupted runs can hand us empty curves
    size_t k = 1;
    while (k <= n) {
        idx.push_back(k - 1);
        const size_t step = std::max<size_t>(1, k / 8);
        k += step;
    }
    if (idx.back() != n - 1) idx.push_back(n - 1);
    return idx;
}

}  // namespace

ExperimentRunner::ExperimentRunner(netlist::Circuit circuit,
                                   ExperimentOptions options)
    : circuit_(std::move(circuit)), options_(std::move(options)) {
    // Process-wide default wall-clock budget for runs that set none.
    if (!options_.budget.deadline.active()) {
        const long long ms = support::env_deadline_ms();
        if (ms > 0)
            options_.budget.deadline = support::Deadline::after_ms(ms);
    }
    // DLPROJ_LINT=0/off turns the static-analysis gate off process-wide;
    // an explicit lint_enabled=false in the options always wins.
    if (options_.lint_enabled)
        options_.lint_enabled = lint::lint_enabled_from_env();
    // DLPROJ_ANALYSIS=0/off disables the untestability stage the same way.
    if (options_.analysis)
        options_.analysis = analysis::analysis_enabled_from_env();
}

lint::LintReport ExperimentRunner::lint_report() const {
    lint::LintReport merged;
    for (const auto* part : {&circuit_lint_, &rules_lint_, &faults_lint_}) {
        if (!part->has_value()) continue;
        const lint::LintReport& r = **part;
        merged.diagnostics.insert(merged.diagnostics.end(),
                                  r.diagnostics.begin(),
                                  r.diagnostics.end());
        merged.errors += r.errors;
        merged.warnings += r.warnings;
        merged.infos += r.infos;
        merged.suppressed += r.suppressed;
    }
    return merged;
}

void ExperimentRunner::fail_lint() {
    // Cache a diagnostics-only result so fit()/run() after the throw
    // still hand back an ExperimentResult carrying the findings.
    ExperimentResult r;
    r.lint = lint_report();
    r.interruption = ExperimentResult::Interruption{
        "lint", support::StopReason::LintFailed, 0, 0};
    result_ = std::move(r);
    DLP_OBS_ANNOTATE("lint failed: " +
                     std::to_string(result_->lint.errors) + " error(s)");
    throw lint::LintError(
        "static analysis rejected the experiment inputs:\n" +
            lint::render_text(result_->lint.diagnostics),
        result_->lint);
}

void ExperimentRunner::run_lint_gate(bool circuit_sweep) {
    DLP_OBS_SPAN(lint_span, "flow.lint");
    DLP_OBS_COUNTER(c_err, "lint.errors");
    DLP_OBS_COUNTER(c_warn, "lint.warnings");
    DLP_OBS_COUNTER(c_info, "lint.infos");
    const lint::SuppressionSet suppress{options_.lint.suppress};
    if (circuit_sweep) {
        lint::DiagnosticEngine engine{suppress};
        lint::lint_circuit(circuit_, engine, options_.lint);
        DLP_OBS_ADD(c_err, static_cast<long long>(engine.errors()));
        DLP_OBS_ADD(c_warn, static_cast<long long>(engine.warnings()));
        DLP_OBS_ADD(c_info, static_cast<long long>(engine.infos()));
        circuit_lint_ = lint::make_report(engine);
    }
    {
        lint::DiagnosticEngine engine{suppress};
        lint::lint_rules(options_.defects, engine);
        DLP_OBS_ADD(c_err, static_cast<long long>(engine.errors()));
        DLP_OBS_ADD(c_warn, static_cast<long long>(engine.warnings()));
        DLP_OBS_ADD(c_info, static_cast<long long>(engine.infos()));
        rules_lint_ = lint::make_report(engine);
    }
    if ((circuit_lint_ && !circuit_lint_->ok()) ||
        (rules_lint_ && !rules_lint_->ok()))
        fail_lint();
}

void ExperimentRunner::report(std::string_view stage, std::size_t done,
                              std::size_t total) {
    if (progress_) progress_(stage, done, total);
}

void ExperimentRunner::invalidate_all() {
    prepared_.reset();
    extraction_dirty_ = true;
    circuit_lint_.reset();
    injected_stuck_.reset();
    invalidate_analysis();
}

void ExperimentRunner::inject_collapsed_faults(
    std::vector<gatesim::StuckAtFault> stuck) {
    injected_stuck_ = std::move(stuck);
    invalidate_analysis();
}

void ExperimentRunner::inject_analysis(AnalysisData analysis) {
    analysis_ = std::move(analysis);
    invalidate_tests();
}

void ExperimentRunner::inject_tests(TestSet tests) {
    tests_ = std::move(tests);
    faults_lint_.reset();
    invalidate_simulation();
}

void ExperimentRunner::inject_simulation(SimulationData sim) {
    sim_data_ = std::move(sim);
    result_.reset();
}

void ExperimentRunner::invalidate_extraction() {
    extraction_dirty_ = true;
    rules_lint_.reset();
    invalidate_simulation();
}

void ExperimentRunner::invalidate_analysis() {
    analysis_.reset();
    invalidate_tests();
}

void ExperimentRunner::invalidate_tests() {
    tests_.reset();
    faults_lint_.reset();
    invalidate_simulation();
}

void ExperimentRunner::invalidate_simulation() {
    sim_data_.reset();
    result_.reset();
}

const ExperimentRunner::PreparedDesign& ExperimentRunner::prepare() {
    DLP_OBS_COUNTER(c_hit, "flow.prepare.cache_hit");
    DLP_OBS_COUNTER(c_miss, "flow.prepare.cache_miss");
    if (prepared_ && !extraction_dirty_) {
        DLP_OBS_ADD(c_hit, 1);
        return *prepared_;
    }
    DLP_OBS_ADD(c_miss, 1);
    DLP_OBS_SPAN(stage_span, "flow.prepare");
    // Static analysis first: reject bad inputs before the expensive
    // physical-design work.  The circuit sweep runs once; the rules sweep
    // re-runs whenever the extraction inputs changed.
    if (options_.lint_enabled) run_lint_gate(/*circuit_sweep=*/!prepared_);
    if (!prepared_) {
        PreparedDesign p;
        report("techmap", 0, 1);
        {
            DLP_OBS_SPAN(s, "techmap");
            p.mapped = netlist::techmap(circuit_, options_.techmap);
        }
        report("techmap", 1, 1);
        report("layout", 0, 1);
        {
            DLP_OBS_SPAN(s, "layout");
            p.chip = layout::place_and_route(p.mapped, options_.layout);
        }
        report("layout", 1, 1);
        p.swnet = switchsim::build_switch_netlist(p.mapped);
        prepared_ = std::move(p);
        extraction_dirty_ = true;
    }
    if (extraction_dirty_) {
        DLP_OBS_SPAN(s, "extract");
        report("extract", 0, 1);
        PreparedDesign& p = *prepared_;
        p.extraction =
            extract_faults(p.chip, options_.defects, options_.extract);
        p.raw_total_weight = p.extraction.total_weight;
        p.weight_by_class = p.extraction.weight_by_class;
        // Yield scaling ("different size, same testability", paper sec. 3).
        if (options_.target_yield > 0.0) {
            const double scale = model::yield_scale_factor(
                p.extraction.total_weight, options_.target_yield);
            for (auto& f : p.extraction.faults) f.weight *= scale;
            p.extraction.total_weight *= scale;
        }
        p.yield = std::exp(-p.extraction.total_weight);
        extraction_dirty_ = false;
        report("extract", 1, 1);
    }
    return *prepared_;
}

const ExperimentRunner::AnalysisData& ExperimentRunner::analyze() {
    DLP_OBS_COUNTER(c_hit, "flow.analyze.cache_hit");
    DLP_OBS_COUNTER(c_miss, "flow.analyze.cache_miss");
    if (analysis_) DLP_OBS_ADD(c_hit, 1);
    if (!analysis_) {
        DLP_OBS_ADD(c_miss, 1);
        const PreparedDesign& p = prepare();
        DLP_OBS_SPAN(stage_span, "flow.analyze");
        report("analysis", 0, 1);
        AnalysisData a;
        a.stuck = injected_stuck_
                      ? *injected_stuck_
                      : gatesim::collapse_faults(
                            p.mapped, gatesim::full_fault_universe(p.mapped));
        analysis::AnalysisOptions opts = options_.analysis_options;
        opts.budget = options_.budget;
        opts.parallel = options_.parallel;
        analysis::AnalysisResult r =
            analysis::find_untestable(p.mapped, a.stuck, opts);
        a.untestable = std::move(r.untestable);
        a.proofs = std::move(r.proofs);
        a.stats = r.stats;
        a.stop = r.stop;
        DLP_OBS_SPAN_NOTE(stage_span,
                          std::to_string(a.stats.proofs) + " of " +
                              std::to_string(a.stuck.size()) +
                              " faults proven untestable");
        if (a.stop != support::StopReason::None)
            DLP_OBS_SPAN_NOTE(
                stage_span,
                "interrupted: " +
                    std::string(support::stop_reason_name(a.stop)));
        report("analysis", 1, 1);
        analysis_ = std::move(a);
    }
    return *analysis_;
}

const ExperimentRunner::TestSet& ExperimentRunner::generate_tests() {
    DLP_OBS_COUNTER(c_hit, "flow.generate_tests.cache_hit");
    DLP_OBS_COUNTER(c_miss, "flow.generate_tests.cache_miss");
    if (tests_) DLP_OBS_ADD(c_hit, 1);
    if (!tests_) {
        DLP_OBS_ADD(c_miss, 1);
        const PreparedDesign& p = prepare();
        // The analysis stage runs first when enabled: its marks settle
        // proven-untestable faults before ATPG ever targets them.
        const AnalysisData* a = options_.analysis ? &analyze() : nullptr;
        DLP_OBS_SPAN(stage_span, "flow.generate_tests");
        TestSet t;
        report("atpg", 0, 1);
        t.stuck = a ? a->stuck
                    : (injected_stuck_
                           ? *injected_stuck_
                           : gatesim::collapse_faults(
                                 p.mapped,
                                 gatesim::full_fault_universe(p.mapped)));
        // Cross-validate the collapse before spending ATPG time on it: a
        // lost or duplicated equivalence class would skew every weighted
        // coverage ratio downstream.
        if (options_.lint_enabled) {
            DLP_OBS_SPAN(lint_span, "flow.lint");
            DLP_OBS_COUNTER(c_err, "lint.errors");
            DLP_OBS_COUNTER(c_warn, "lint.warnings");
            DLP_OBS_COUNTER(c_info, "lint.infos");
            lint::DiagnosticEngine engine{
                lint::SuppressionSet(options_.lint.suppress)};
            lint::lint_faults(p.mapped, t.stuck, engine);
            DLP_OBS_ADD(c_err, static_cast<long long>(engine.errors()));
            DLP_OBS_ADD(c_warn, static_cast<long long>(engine.warnings()));
            DLP_OBS_ADD(c_info, static_cast<long long>(engine.infos()));
            faults_lint_ = lint::make_report(engine);
            if (!engine.ok()) fail_lint();
        }
        atpg::TestGenOptions atpg_opts = options_.atpg;
        atpg_opts.parallel = options_.parallel;
        atpg_opts.budget = options_.budget;
        if (a) atpg_opts.untestable = a->untestable;
        t.tests = atpg::generate_test_set(p.mapped, t.stuck, atpg_opts);
        report("atpg", 1, 1);

        // T(k) over the full sequence, from the ATPG detection table.  Like
        // the paper, proven-redundant faults are neglected (fault
        // efficiency); with the analysis stage on, the statically proven
        // faults join the redundant set, so this curve is the testability-
        // corrected one and the raw (no-exclusion) curve rides alongside.
        const double testable =
            static_cast<double>(t.stuck.size() - t.tests.redundant);
        const double total = static_cast<double>(t.stuck.size());
        std::vector<int> hits(t.tests.vectors.size() + 1, 0);
        for (int at : t.tests.first_detected_at)
            if (at >= 1) ++hits[static_cast<size_t>(at)];
        t.t_curve.values.resize(t.tests.vectors.size());
        if (a) t.t_curve_raw.values.resize(t.tests.vectors.size());
        double cum = 0;
        for (size_t k = 1; k <= t.tests.vectors.size(); ++k) {
            cum += hits[k];
            t.t_curve.values[k - 1] = testable == 0.0 ? 0.0 : cum / testable;
            if (a)
                t.t_curve_raw.values[k - 1] =
                    total == 0.0 ? 0.0 : cum / total;
        }
        if (t.tests.stop != support::StopReason::None)
            DLP_OBS_SPAN_NOTE(
                stage_span,
                "interrupted: " +
                    std::string(support::stop_reason_name(t.tests.stop)));
        tests_ = std::move(t);
    }
    return *tests_;
}

const ExperimentRunner::SimulationData& ExperimentRunner::simulate() {
    DLP_OBS_COUNTER(c_hit, "flow.simulate.cache_hit");
    DLP_OBS_COUNTER(c_miss, "flow.simulate.cache_miss");
    if (sim_data_) DLP_OBS_ADD(c_hit, 1);
    if (!sim_data_) {
        DLP_OBS_ADD(c_miss, 1);
        const TestSet& t = generate_tests();
        const PreparedDesign& p = prepare();
        DLP_OBS_SPAN(stage_span, "flow.simulate");
        SimulationData d;
        const switchsim::SwitchSim sim(p.swnet, options_.sim);
        auto swfaults = to_switch_faults(p.extraction, p.chip, p.swnet);
        if (!options_.weighted)
            for (auto& f : swfaults) f.weight = 1.0;
        switchsim::SwitchFaultSimulator swsim(sim, std::move(swfaults),
                                              options_.parallel);
        swsim.set_progress(progress_);
        const auto ares = swsim.apply(
            std::span<const switchsim::Vector>(t.tests.vectors),
            options_.budget);
        d.stop = ares.stop;
        d.vectors_done = static_cast<std::size_t>(ares.vectors_applied);
        d.vectors_total = t.tests.vectors.size();
        d.theta_curve = CoverageCurve(swsim.weighted_coverage_curve());
        d.gamma_curve = CoverageCurve(swsim.unweighted_coverage_curve());
        d.theta_iddq_curve =
            CoverageCurve(swsim.weighted_coverage_curve_with_iddq());
        d.first_detected_at.assign(swsim.first_detected_at().begin(),
                                   swsim.first_detected_at().end());
        d.iddq_detected_at.assign(swsim.iddq_detected_at().begin(),
                                  swsim.iddq_detected_at().end());
        if (d.stop != support::StopReason::None)
            DLP_OBS_SPAN_NOTE(
                stage_span,
                "interrupted: " +
                    std::string(support::stop_reason_name(d.stop)) + " at " +
                    std::to_string(d.vectors_done) + "/" +
                    std::to_string(d.vectors_total) + " vectors");
        // A loop that did not settle within SimParams::max_sweeps left its
        // last value standing: say so, as a stop is said.
        if (swsim.cap_hits() > 0)
            DLP_OBS_SPAN_NOTE(stage_span,
                              "max_sweeps cap hit " +
                                  std::to_string(swsim.cap_hits()) +
                                  " times: some loops did not settle");
        sim_data_ = std::move(d);
    }
    return *sim_data_;
}

const ExperimentResult& ExperimentRunner::fit() {
    DLP_OBS_COUNTER(c_hit, "flow.fit.cache_hit");
    DLP_OBS_COUNTER(c_miss, "flow.fit.cache_miss");
    if (result_) DLP_OBS_ADD(c_hit, 1);
    if (!result_) {
        DLP_OBS_ADD(c_miss, 1);
        const SimulationData& d = simulate();
        // Via stage accessors, not the raw optionals: with an injected
        // simulation artifact the upstream stages may not have run yet.
        const TestSet& t = generate_tests();
        const PreparedDesign& p = prepare();
        DLP_OBS_SPAN(stage_span, "flow.fit");
        report("fit", 0, 1);

        ExperimentResult r;
        r.mapped_gates = p.mapped.logic_gate_count();
        r.stuck_faults = t.stuck.size();
        r.realistic_faults = p.extraction.faults.size();
        r.transistors = p.swnet.transistors.size();
        r.vector_count = static_cast<int>(t.tests.vectors.size());
        r.random_vectors = t.tests.random_count;
        r.yield = p.yield;
        r.raw_total_weight = p.raw_total_weight;
        r.die_area = p.chip.area();
        r.weight_by_class = p.weight_by_class;
        r.fault_weights = p.extraction.weights();
        r.first_detected_at = d.first_detected_at;
        r.iddq_detected_at = d.iddq_detected_at;
        r.t_curve = t.t_curve;
        r.t_curve_raw = t.t_curve_raw;
        r.theta_curve = d.theta_curve;
        r.gamma_curve = d.gamma_curve;
        r.theta_iddq_curve = d.theta_iddq_curve;
        r.lint = lint_report();
        // Analysis-stage outcome; read from the cached optional (never
        // recomputed here) so an injected test set without an injected
        // analysis artifact still fits, just without the counters.
        if (analysis_) {
            r.untestable_faults = analysis_->stats.proofs;
            r.analysis_stats = analysis_->stats;
        }

        // n-detection quality of the stuck-at set: grade the per-fault
        // detection counts against the ATPG target, excluding redundant
        // faults so coverage figures match TestGenResult::coverage().
        {
            std::vector<std::uint8_t> redundant(t.tests.status.size(), 0);
            for (std::size_t i = 0; i < t.tests.status.size(); ++i)
                if (t.tests.status[i] == atpg::FaultStatus::Redundant)
                    redundant[i] = 1;
            r.ndetect = model::ndetect_profile(t.tests.detection_counts,
                                               t.tests.ndetect, redundant);
        }

        // Record where a budget stopped the run (earliest stage wins; a
        // sticky stop in analysis or ATPG also stops the later stages
        // immediately).
        if (analysis_ && analysis_->stop != support::StopReason::None) {
            r.interruption = ExperimentResult::Interruption{
                "analysis", analysis_->stop, analysis_->stats.pivots_done,
                analysis_->stats.pivots_total};
        } else if (t.tests.stop != support::StopReason::None) {
            r.interruption = ExperimentResult::Interruption{
                "atpg", t.tests.stop, t.stuck.size() - t.tests.untargeted,
                t.stuck.size()};
        } else if (d.stop != support::StopReason::None) {
            r.interruption = ExperimentResult::Interruption{
                "switch-sim", d.stop, d.vectors_done, d.vectors_total};
        }
        if (r.interruption)
            DLP_OBS_SPAN_NOTE(
                stage_span,
                "run interrupted in " + r.interruption->stage + ": " +
                    std::string(
                        support::stop_reason_name(r.interruption->reason)));

        // Defect-level points DL(theta(k)) against T(k) and Gamma(k), over
        // the prefix both simulators completed (an interrupted switch-level
        // pass yields shorter theta/Gamma curves than T).
        const size_t usable =
            std::min(r.t_curve.size(),
                     std::min(r.theta_curve.size(), r.gamma_curve.size()));
        // Defect-statistics backend: the explicit option wins, else the
        // rules deck's cluster_* directives, else Poisson.  lambda is the
        // scaled total weight (Y = e^-lambda under Poisson).
        r.defect_stats = options_.defect_stats.is_poisson()
                             ? options_.defects.clustering
                             : options_.defect_stats;
        const double lambda = p.extraction.total_weight;
        r.stat_yield = r.defect_stats.yield(lambda);
        const bool clustered = !r.defect_stats.is_poisson();
        for (size_t i : sample_indices(usable)) {
            const double dl = model::weighted_dl(r.yield, r.theta_curve[i]);
            r.dl_vs_t.push_back({r.t_curve[i], dl});
            r.dl_vs_gamma.push_back({r.gamma_curve[i], dl});
            if (i < r.t_curve_raw.size())
                r.dl_vs_t_raw.push_back({r.t_curve_raw[i], dl});
            if (clustered)
                r.dl_vs_t_clustered.push_back(
                    {r.t_curve[i],
                     r.defect_stats.dl(lambda, r.theta_curve[i])});
        }

        // Fits: eq (11) parameters and the coverage-law susceptibilities,
        // on whatever prefix is available (fitting needs data; a run
        // stopped before any vector completed keeps the default fits).
        try {
            r.fit = model::fit_proposed_model(r.yield, r.dl_vs_t);
        } catch (const std::exception&) {
            r.fit = {};
        }
        if (!r.dl_vs_t_raw.empty()) {
            try {
                r.fit_raw = model::fit_proposed_model(r.yield, r.dl_vs_t_raw);
            } catch (const std::exception&) {
                r.fit_raw = {};
            }
        }
        if (!r.dl_vs_t_clustered.empty()) {
            try {
                r.fit_clustered =
                    model::fit_clustered_model(lambda, r.dl_vs_t_clustered);
            } catch (const std::exception&) {
                r.fit_clustered = {};
            }
        }
        {
            std::vector<model::CoveragePoint> t_pts;
            std::vector<model::CoveragePoint> th_pts;
            for (size_t i : sample_indices(usable)) {
                t_pts.push_back({static_cast<double>(i + 1), r.t_curve[i]});
                th_pts.push_back(
                    {static_cast<double>(i + 1), r.theta_curve[i]});
            }
            try {
                r.t_law = model::fit_coverage_law(t_pts, false);
            } catch (const std::exception&) {
                r.t_law = {};
            }
            try {
                r.theta_law = model::fit_coverage_law(th_pts, true);
            } catch (const std::exception&) {
                r.theta_law = {};
            }
        }
        result_ = std::move(r);
        report("fit", 1, 1);
    }
    return *result_;
}

ExperimentResult run_experiment(const netlist::Circuit& circuit,
                                const ExperimentOptions& options) {
    ExperimentRunner runner(circuit, options);
    return runner.run();
}

}  // namespace dlp::flow
