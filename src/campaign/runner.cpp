#include "campaign/runner.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "extract/rules_parser.h"
#include "lint/checks.h"
#include "netlist/bench_parser.h"
#include "obs/telemetry.h"

namespace dlp::campaign {

namespace {

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

CellKeys make_keys(const CampaignSpec& spec, const std::string& bench_hash,
                   const std::string& rules_hash,
                   const flow::ExperimentOptions& opt) {
    // The optional axes add lines only when they change an artifact, so a
    // classic cell keeps the classic keys.
    std::string tests_axes, cell_axes;
    for (const GridAxis& a : grid_axes())
        (a.stage == GridAxis::Stage::Tests ? tests_axes : cell_axes) +=
            a.key_lines(opt);
    const atpg::TestGenOptions& atpg = opt.atpg;
    const std::string bench = "bench " + bench_hash + "\n";
    CellKeys k;
    k.faults = "dlproj-key faults 1\n" + bench;
    // Keyed by the circuit alone: the marks are a property of its
    // structure, so every analysis cell of a circuit shares one artifact
    // across rules/seeds/ATPG variants.
    k.analysis = "dlproj-key analysis 1\n" + bench;
    std::ostringstream tests;
    tests << "dlproj-key tests 1\n"
          << bench << "seed " << atpg.seed << "\n"
          << "random_block " << atpg.random_block << "\n"
          << "max_random " << atpg.max_random << "\n"
          << "stale_blocks " << atpg.stale_blocks << "\n"
          << "backtrack_limit " << atpg.backtrack_limit << "\n"
          << "max_vectors " << spec.max_vectors << "\n"
          << tests_axes;
    k.tests = tests.str();
    k.sim = "dlproj-key sim 1\ntests " + hex64(fnv1a64(k.tests)) +
            "\nrules " + rules_hash + "\ntarget_yield " +
            double_hex(spec.target_yield) + "\nweighted " +
            (spec.weighted ? "1" : "0") + "\n";
    k.cell = "dlproj-key cell 1\n" + k.sim + cell_axes;
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

/// Runs (or serves from the cache) grid cell `index` into `rep`; false
/// when a campaign-level budget stop interrupted it (the stop reason is
/// recorded in `rep.stats.stop`; nothing committed).
bool run_cell(const CampaignSpec& spec, const CampaignOptions& options,
              std::size_t index, CampaignReport& rep, ArtifactStore& store) {
    DLP_OBS_SPAN(span, "campaign.cell");
    DLP_OBS_COUNTER(c_hit, "campaign.cell.cache_hit");
    DLP_OBS_COUNTER(c_miss, "campaign.cell.cache_miss");
    const Cell cell = cell_at(spec, index);
    const auto cell_id = [&] {
        std::string id = "cell #" + std::to_string(index) + " (" +
                         cell.circuit + ", " + cell.rules + ", seed " +
                         std::to_string(cell.seed) + ", atpg " + cell.atpg;
        for (std::size_t a = 0; a < cell.axes.size(); ++a)
            if (cell.axes[a] != grid_axes()[a].classic)
                id += ", " + std::string(grid_axes()[a].key) + " " +
                      cell.axes[a];
        return id + ")";
    };

    // Resolve the grid names to concrete inputs and canonicalize them by
    // content, so two names for the same circuit (a builder and a .bench
    // dump of it) address the same artifacts.
    netlist::Circuit circuit("unresolved");
    flow::ExperimentOptions opt;
    try {
        circuit = resolve_circuit(cell.circuit);
        opt.defects = resolve_rules(cell.rules);
        opt.atpg = atpg_variant(spec, cell.atpg).options;
        opt.atpg.seed = cell.seed;
        for (std::size_t a = 0; a < cell.axes.size(); ++a)
            grid_axes()[a].apply(cell.axes[a], opt);
    } catch (const std::exception& e) {
        throw std::runtime_error("campaign " + cell_id() + ": " + e.what());
    }
    opt.target_yield = spec.target_yield;
    opt.weighted = spec.weighted;
    opt.parallel = options.parallel;
    opt.budget = options.budget;
    opt.budget.max_vectors = spec.max_vectors;
    opt.lint_enabled = spec.lint;
    const bool analysis_on = opt.analysis;
    const std::string bench_hash = hex64(fnv1a64(netlist::to_bench(circuit)));
    const std::string rules_hash =
        hex64(fnv1a64(extract::to_rules(opt.defects)));
    const CellKeys keys = make_keys(spec, bench_hash, rules_hash, opt);

    // Looks up the cached `kind` artifact and hands it to `use`.  A parse
    // failure (format drift) counts as a miss, and a disabled store counts
    // nothing: "no cache configured" stays distinct from "cold cache".
    CampaignStats& st = rep.stats;
    const auto cached = [&](const char* kind, const std::string& key,
                            std::size_t& hits, std::size_t& misses,
                            const auto& use) {
        if (auto hit = store.get(kind, key)) {
            try {
                use(*hit);
                ++hits;
                return true;
            } catch (const std::exception&) {
            }
        }
        if (store.enabled()) ++misses;
        return false;
    };

    // Whole-cell hit: skip everything.
    const bool cell_hit = cached(
        "cell", keys.cell, st.cell_hits, st.cell_misses,
        [&](const std::string& text) {
            CellResult r = parse_cell(text);
            r.index = index;
            rep.cells.push_back(std::move(r));
        });
    if (cell_hit) {
        DLP_OBS_ADD(c_hit, 1);
        return true;
    }
    if (store.enabled()) DLP_OBS_ADD(c_miss, 1);

    flow::ExperimentRunner runner(std::move(circuit), std::move(opt));
    runner.set_progress(options.progress);

    // Seed the runner with any cached stage artifacts.  The analysis
    // artifact goes in first: inject_analysis drops downstream artifacts,
    // so injecting it after the test set would discard the test set.
    // Simulation data is only reused over a reused test set.
    const bool analysis_injected =
        analysis_on &&
        cached("analysis", keys.analysis, st.analysis_hits,
               st.analysis_misses, [&](const std::string& text) {
                   runner.inject_analysis(parse_analysis(text));
               });
    const bool tests_injected =
        cached("tests", keys.tests, st.tests_hits, st.tests_misses,
               [&](const std::string& text) {
                   runner.inject_tests(parse_tests(text));
               });
    if (!tests_injected)
        cached("faults", keys.faults, st.faults_hits, st.faults_misses,
               [&](const std::string& text) {
                   runner.inject_collapsed_faults(parse_faults(text));
               });
    const bool sim_injected =
        tests_injected &&
        cached("sim", keys.sim, st.sim_hits, st.sim_misses,
               [&](const std::string& text) {
                   runner.inject_simulation(parse_simulation(text));
               });
    if (!tests_injected && store.enabled()) ++st.sim_misses;

    // A cancel or deadline aborts the campaign; a vector budget is a
    // deterministic part of the cell's configuration and commits normally.
    const auto stopped = [&](support::StopReason reason) {
        if (reason != support::StopReason::Cancelled &&
            reason != support::StopReason::DeadlineExpired)
            return false;
        st.stop = reason;
        return true;
    };
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
            if (stopped(a.stop)) return false;
            if (!analysis_injected)
                store.put("analysis", keys.analysis, serialize_analysis(a));
        }
        const flow::ExperimentRunner::TestSet& t = runner.generate_tests();
        if (stopped(t.tests.stop)) return false;
        if (!tests_injected) {
            store.put("faults", keys.faults, serialize_faults(t.stuck));
            store.put("tests", keys.tests, serialize_tests(t));
        }
        const flow::ExperimentRunner::SimulationData& d = runner.simulate();
        if (stopped(d.stop)) return false;
        if (!sim_injected)
            store.put("sim", keys.sim, serialize_simulation(d));
        const flow::ExperimentResult& res = runner.fit();
        if (res.interruption && stopped(res.interruption->reason))
            return false;
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

}  // namespace

CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
    DLP_OBS_SPAN(span, "campaign.run");
    CampaignReport rep;
    rep.name = spec.name;
    rep.swept = swept_axes(spec);
    rep.stats.cells_total = spec.cell_count();
    const std::vector<std::size_t> cells =
        shard_cells(rep.stats.cells_total, options.shard);
    rep.stats.cells_selected = cells.size();
    ArtifactStore store(options.use_cache ? options.cache_dir : std::string());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (options.progress) options.progress("cell", i, cells.size());
        if (const auto stop = options.budget.check();
            stop != support::StopReason::None) {
            rep.stats.stop = stop;
            break;
        }
        if (!run_cell(spec, options, cells[i], rep, store)) break;
        ++rep.stats.cells_completed;
        if (options.progress)
            options.progress("campaign", i + 1, cells.size());
    }
    rep.stats.store_corrupt = store.corrupt();
    if (rep.stats.stop != support::StopReason::None)
        DLP_OBS_SPAN_NOTE(
            span, "campaign stopped: " + std::string(support::stop_reason_name(
                                             rep.stats.stop)));
    return rep;
}

}  // namespace dlp::campaign
