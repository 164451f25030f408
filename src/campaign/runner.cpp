#include "campaign/runner.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/untestable.h"
#include "extract/rules_parser.h"
#include "lint/checks.h"
#include "model/defect_stats_model.h"
#include "netlist/bench_parser.h"
#include "obs/telemetry.h"

namespace dlp::campaign {

namespace {

/// A stop that must abort the campaign (vs. a vector budget, which is a
/// deterministic part of the cell's configuration and commits normally).
bool is_campaign_stop(support::StopReason reason) {
    return reason == support::StopReason::Cancelled ||
           reason == support::StopReason::DeadlineExpired;
}

/// Canonical key texts.  Each embeds a format version so incompatible
/// pipeline changes can invalidate old caches by bumping it; doubles are
/// encoded by bit pattern so a key never aliases across distinct values.
struct CellKeys {
    std::string faults;    ///< collapsed fault universe
    std::string analysis;  ///< untestability marks (analysis cells only)
    std::string tests;     ///< + ATPG config, seed, vector budget
    std::string sim;       ///< + rule deck, yield scaling, weighting
    std::string cell;      ///< fitted-cell result (same inputs as sim)
};

CellKeys make_keys(const CampaignSpec& spec, const Cell& cell,
                   const std::string& bench_hash,
                   const std::string& rules_hash,
                   const atpg::TestGenOptions& atpg, bool analysis,
                   const std::string& defect_stats) {
    CellKeys k;
    {
        std::ostringstream o;
        o << "dlproj-key faults 1\n" << "bench " << bench_hash << "\n";
        k.faults = o.str();
    }
    {
        // Keyed by the circuit alone: the marks are a property of its
        // structure, so every analysis cell of a circuit shares one
        // artifact across rules/seeds/ATPG variants.
        std::ostringstream o;
        o << "dlproj-key analysis 1\n" << "bench " << bench_hash << "\n";
        k.analysis = o.str();
    }
    {
        std::ostringstream o;
        o << "dlproj-key tests 1\n"
          << "bench " << bench_hash << "\n"
          << "seed " << cell.seed << "\n"
          << "random_block " << atpg.random_block << "\n"
          << "max_random " << atpg.max_random << "\n"
          << "stale_blocks " << atpg.stale_blocks << "\n"
          << "backtrack_limit " << atpg.backtrack_limit << "\n"
          << "max_vectors " << spec.max_vectors << "\n";
        // The n-detection target (and the top-up mix, which only matters
        // beyond the first detection) enter the key only when they can
        // change the test set, so the n=1 cells of an ndetect-axis grid
        // share the classic cells' artifacts.
        if (atpg.ndetect > 1)
            o << "ndetect " << atpg.ndetect << "\n"
              << "ndetect_mix " << atpg::ndetect_mix_name(atpg.ndetect_mix)
              << "\n";
        // Likewise for the untestability analysis: marks change the test
        // set (proven faults settle Redundant), so only analysis cells key
        // on it and analysis-off cells share the classic artifacts.
        if (analysis) o << "analysis on\n";
        k.tests = o.str();
    }
    {
        std::ostringstream o;
        o << "dlproj-key sim 1\n"
          << "tests " << hex64(fnv1a64(k.tests)) << "\n"
          << "rules " << rules_hash << "\n"
          << "target_yield " << double_hex(spec.target_yield) << "\n"
          << "weighted " << (spec.weighted ? 1 : 0) << "\n";
        k.sim = o.str();
    }
    // The backend enters only the CELL key: it changes nothing upstream of
    // the fit stage, so faults/tests/sim artifacts are shared across the
    // whole defect_stats axis, and the poisson spelling adds no key
    // material at all — poisson cells keep hitting classic caches.  (A
    // deck's own cluster_* directives are already covered by rules_hash.)
    k.cell = "dlproj-key cell 1\n" + k.sim;
    if (defect_stats != "poisson")
        k.cell += "defect_stats " + defect_stats + "\n";
    return k;
}

CellResult make_cell_result(const Cell& cell, bool analysis,
                            const flow::ExperimentResult& r) {
    CellResult c;
    c.index = cell.index;
    c.circuit = cell.circuit;
    c.rules = cell.rules;
    c.atpg = cell.atpg;
    c.seed = cell.seed;
    c.mapped_gates = r.mapped_gates;
    c.stuck_faults = r.stuck_faults;
    c.realistic_faults = r.realistic_faults;
    c.transistors = r.transistors;
    c.vector_count = r.vector_count;
    c.random_vectors = r.random_vectors;
    c.yield = r.yield;
    c.fit_r = r.fit.r;
    c.fit_theta_max = r.fit.theta_max;
    c.fit_rms = r.fit.rms_error;
    c.ndetect = r.ndetect.target;
    c.ndetect_min = r.ndetect.min_detections;
    c.ndetect_mean = r.ndetect.mean_detections;
    c.worst_case_coverage = r.ndetect.worst_case_coverage;
    c.avg_case_coverage = r.ndetect.avg_case_coverage;
    c.analysis = analysis;
    // Only analysis cells carry the raw figures: an analysis-off cell
    // reports zero untestable faults and an empty raw curve, not the
    // ProposedFit defaults of a raw fit that never ran.
    if (analysis) {
        c.untestable_faults = r.untestable_faults;
        c.fit_raw_r = r.fit_raw.r;
        c.fit_raw_theta_max = r.fit_raw.theta_max;
        c.t_curve_raw = r.t_curve_raw;
    }
    // stat_yield is bit-identical to yield for Poisson backends; only
    // clustered cells carry a descriptor and a joint clustered fit.
    c.stat_yield = r.stat_yield;
    const std::string backend = r.defect_stats.describe();
    if (backend != "poisson") {
        c.defect_stats = backend;
        c.fit_c_r = r.fit_clustered.r;
        c.fit_c_theta_max = r.fit_clustered.theta_max;
        c.fit_c_alpha = r.fit_clustered.alpha;
        c.fit_c_rms = r.fit_clustered.rms_error;
    }
    if (r.interruption)
        c.interruption =
            r.interruption->stage + ":" +
            std::string(support::stop_reason_name(r.interruption->reason));
    c.t_curve = r.t_curve;
    c.theta_curve = r.theta_curve;
    c.gamma_curve = r.gamma_curve;
    c.theta_iddq_curve = r.theta_iddq_curve;
    return c;
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec, CampaignOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

void CampaignRunner::report_progress(std::string_view stage, std::size_t done,
                                     std::size_t total) {
    if (options_.progress) options_.progress(stage, done, total);
}

CampaignReport CampaignRunner::run() {
    DLP_OBS_SPAN(span, "campaign.run");
    CampaignReport rep;
    rep.name = spec_.name;
    rep.ndetect_axis = spec_.has_ndetect_axis();
    rep.analysis_axis = spec_.has_analysis_axis();
    rep.defect_stats_axis = spec_.has_defect_stats_axis();
    rep.stats.cells_total = spec_.cell_count();
    const std::vector<std::size_t> cells =
        shard_cells(rep.stats.cells_total, options_.shard);
    rep.stats.cells_selected = cells.size();
    ArtifactStore store(options_.use_cache ? options_.cache_dir
                                           : std::string());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        report_progress("cell", i, cells.size());
        if (const auto stop = options_.budget.check();
            stop != support::StopReason::None) {
            rep.stats.stop = stop;
            break;
        }
        if (!run_cell(cells[i], rep, store)) break;
        ++rep.stats.cells_completed;
        report_progress("campaign", i + 1, cells.size());
    }
    rep.stats.store_corrupt = store.corrupt();
    if (rep.stats.stop != support::StopReason::None)
        DLP_OBS_SPAN_NOTE(
            span, "campaign stopped: " + std::string(support::stop_reason_name(
                                             rep.stats.stop)));
    return rep;
}

bool CampaignRunner::run_cell(std::size_t index, CampaignReport& rep,
                              ArtifactStore& store) {
    DLP_OBS_SPAN(span, "campaign.cell");
    DLP_OBS_COUNTER(c_hit, "campaign.cell.cache_hit");
    DLP_OBS_COUNTER(c_miss, "campaign.cell.cache_miss");
    const Cell cell = cell_at(spec_, index);
    const auto cell_id = [&] {
        std::string id = "cell #" + std::to_string(index) + " (" +
                         cell.circuit + ", " + cell.rules + ", seed " +
                         std::to_string(cell.seed) + ", atpg " + cell.atpg;
        if (cell.ndetect != 1)
            id += ", ndetect " + std::to_string(cell.ndetect);
        if (cell.analysis) id += ", analysis on";
        if (cell.defect_stats != "poisson")
            id += ", defect_stats " + cell.defect_stats;
        return id + ")";
    };

    // Resolve the grid names to concrete inputs and canonicalize them by
    // content, so two names for the same circuit (a builder and a .bench
    // dump of it) address the same artifacts.
    netlist::Circuit circuit("unresolved");
    extract::DefectStatistics defects;
    try {
        circuit = resolve_circuit(cell.circuit);
        defects = resolve_rules(cell.rules);
    } catch (const std::exception& e) {
        throw std::runtime_error("campaign " + cell_id() + ": " + e.what());
    }
    const AtpgVariant& variant = atpg_variant(spec_, cell.atpg);
    atpg::TestGenOptions atpg_opts = variant.options;
    atpg_opts.seed = cell.seed;
    atpg_opts.ndetect = cell.ndetect;
    // The DLPROJ_ANALYSIS kill switch applies BEFORE keying: with the
    // stage disabled the cell computes — and must cache — as a classic
    // cell, not poison the analysis-keyed artifacts with unanalyzed data.
    const bool analysis_on =
        cell.analysis && analysis::analysis_enabled_from_env();
    model::DefectStatsModel backend;
    try {
        backend = model::parse_defect_stats(cell.defect_stats);
    } catch (const std::exception& e) {
        throw std::runtime_error("campaign " + cell_id() + ": " + e.what());
    }
    const std::string bench_hash = hex64(fnv1a64(netlist::to_bench(circuit)));
    const std::string rules_hash = hex64(fnv1a64(extract::to_rules(defects)));
    const CellKeys keys =
        make_keys(spec_, cell, bench_hash, rules_hash, atpg_opts, analysis_on,
                  backend.describe());

    // Whole-cell hit: skip everything.
    if (auto hit = store.get("cell", keys.cell)) {
        try {
            CellResult r = parse_cell(*hit);
            r.index = index;
            rep.cells.push_back(std::move(r));
            ++rep.stats.cell_hits;
            DLP_OBS_ADD(c_hit, 1);
            return true;
        } catch (const std::exception&) {
            // Format drift: fall through and recompute.
        }
    }
    // A disabled store never hits and should not report misses either:
    // "no cache configured" must stay distinguishable from "cold cache".
    if (store.enabled()) {
        ++rep.stats.cell_misses;
        DLP_OBS_ADD(c_miss, 1);
    }

    flow::ExperimentOptions opt;
    opt.target_yield = spec_.target_yield;
    opt.weighted = spec_.weighted;
    opt.defects = defects;
    opt.atpg = atpg_opts;
    opt.parallel = options_.parallel;
    opt.budget = options_.budget;
    opt.budget.max_vectors = spec_.max_vectors;
    opt.lint_enabled = spec_.lint;
    opt.analysis = analysis_on;
    opt.defect_stats = backend;
    flow::ExperimentRunner runner(std::move(circuit), std::move(opt));
    runner.set_progress(options_.progress);

    // Seed the runner with any cached stage artifacts.  The analysis
    // artifact goes in first: inject_analysis drops downstream artifacts,
    // so injecting it after the test set would discard the test set.
    bool analysis_injected = false;
    if (analysis_on) {
        if (auto hit = store.get("analysis", keys.analysis)) {
            try {
                runner.inject_analysis(parse_analysis(*hit));
                analysis_injected = true;
                ++rep.stats.analysis_hits;
            } catch (const std::exception&) {
            }
        }
        if (!analysis_injected && store.enabled())
            ++rep.stats.analysis_misses;
    }
    bool tests_injected = false;
    if (auto hit = store.get("tests", keys.tests)) {
        try {
            runner.inject_tests(parse_tests(*hit));
            tests_injected = true;
            ++rep.stats.tests_hits;
        } catch (const std::exception&) {
        }
    }
    if (!tests_injected) {
        if (store.enabled()) ++rep.stats.tests_misses;
        bool faults_injected = false;
        if (auto hit = store.get("faults", keys.faults)) {
            try {
                runner.inject_collapsed_faults(parse_faults(*hit));
                faults_injected = true;
                ++rep.stats.faults_hits;
            } catch (const std::exception&) {
            }
        }
        if (!faults_injected && store.enabled()) ++rep.stats.faults_misses;
    }
    bool sim_injected = false;
    if (tests_injected) {
        if (auto hit = store.get("sim", keys.sim)) {
            try {
                runner.inject_simulation(parse_simulation(*hit));
                sim_injected = true;
                ++rep.stats.sim_hits;
            } catch (const std::exception&) {
            }
        }
    }
    if (!sim_injected && store.enabled()) ++rep.stats.sim_misses;

    try {
        // Stage by stage, committing each freshly computed artifact as
        // soon as its stage completes: an interrupted campaign resumes
        // from the last committed artifact.
        //
        // The analysis stage runs even when the test set was injected:
        // fit() reads its counters for the cell result, and recomputing
        // (or re-hitting) it keeps a partially warm cell byte-identical
        // to a cold one.
        if (analysis_on) {
            const flow::ExperimentRunner::AnalysisData& a = runner.analyze();
            if (is_campaign_stop(a.stop)) {
                rep.stats.stop = a.stop;
                return false;
            }
            if (!analysis_injected)
                store.put("analysis", keys.analysis, serialize_analysis(a));
        }
        const flow::ExperimentRunner::TestSet& t = runner.generate_tests();
        if (is_campaign_stop(t.tests.stop)) {
            rep.stats.stop = t.tests.stop;
            return false;
        }
        if (!tests_injected) {
            store.put("faults", keys.faults, serialize_faults(t.stuck));
            store.put("tests", keys.tests, serialize_tests(t));
        }
        const flow::ExperimentRunner::SimulationData& d = runner.simulate();
        if (is_campaign_stop(d.stop)) {
            rep.stats.stop = d.stop;
            return false;
        }
        if (!sim_injected)
            store.put("sim", keys.sim, serialize_simulation(d));
        const flow::ExperimentResult& res = runner.fit();
        if (res.interruption && is_campaign_stop(res.interruption->reason)) {
            rep.stats.stop = res.interruption->reason;
            return false;
        }
        CellResult r = make_cell_result(cell, analysis_on, res);
        store.put("cell", keys.cell, serialize_cell(r));
        rep.cells.push_back(std::move(r));
        return true;
    } catch (const lint::LintError& e) {
        throw std::runtime_error("campaign " + cell_id() +
                                 ": static analysis rejected the inputs:\n" +
                                 lint::render_text(e.report().diagnostics));
    }
}

CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
    CampaignRunner runner(spec, options);
    return runner.run();
}

}  // namespace dlp::campaign
