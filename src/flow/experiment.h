// The paper's end-to-end experiment:
//   circuit -> techmap -> {stuck-at ATPG, layout -> fault extraction ->
//   switch-level fault simulation} -> T(k), theta(k), Gamma(k) ->
//   DL curves -> model fit (R, theta_max).
//
// The pipeline is staged (ExperimentRunner): prepare() builds the physical
// design, generate_tests() the vector set, simulate() the realistic
// coverage curves, fit() the models.  Each stage caches its artifact, so a
// sweep can edit options() and invalidate only the stages downstream of the
// change instead of re-running the whole flow per point.  run_experiment()
// remains the one-call wrapper.
#pragma once

#include <optional>

#include "analysis/untestable.h"
#include "atpg/generate.h"
#include "extract/extractor.h"
#include "layout/place_route.h"
#include "lint/checks.h"
#include "model/coverage_laws.h"
#include "model/defect_stats_model.h"
#include "model/fit.h"
#include "model/ndetect.h"
#include "netlist/techmap.h"
#include "parallel/parallel_for.h"
#include "parallel/progress.h"
#include "support/cancel.h"
#include "switchsim/switch_fault_sim.h"

namespace dlp::flow {

using ProgressFn = parallel::ProgressFn;

struct ExperimentOptions {
    double target_yield = 0.75;  ///< scale weights to this Y (0 = no scaling)
    atpg::TestGenOptions atpg;
    extract::DefectStatistics defects =
        extract::DefectStatistics::cmos_bridging_dominant();
    extract::ExtractOptions extract;
    layout::LayoutOptions layout;
    netlist::TechmapOptions techmap;
    switchsim::SimParams sim;  ///< switch-level electrical parameters
    bool weighted = true;  ///< false: ablation, all realistic faults equal
    /// Worker count for both fault simulators (0 = scoped/env default).
    /// Results are bit-identical for any worker count.
    parallel::ParallelOptions parallel;
    /// Bounded execution for the whole run: cancel token, wall-clock
    /// deadline, vector cap, ATPG backtrack override.  Checked at every
    /// stage boundary and inside the long stages (ATPG, both fault
    /// simulators).  A stopped run still yields an ExperimentResult whose
    /// curves are bit-identical prefixes of the unbounded run's;
    /// ExperimentResult::interruption says which stage stopped and how far
    /// it got.  When no deadline is set, the DLPROJ_DEADLINE_MS environment
    /// variable (milliseconds) supplies a process-wide default.
    support::RunBudget budget;
    /// Static-analysis gate (src/lint): prepare() lints the circuit and
    /// the defect rule deck, generate_tests() cross-validates the
    /// collapsed fault list — all before any expensive work.  Errors throw
    /// lint::LintError and cache a diagnostics-carrying ExperimentResult
    /// (fit()/run() return it); warnings are recorded on
    /// ExperimentResult::lint and counted through src/obs (lint.errors /
    /// lint.warnings / lint.infos).  DLPROJ_LINT=0/off disables the gate
    /// process-wide when this flag is left true.
    bool lint_enabled = true;
    lint::LintOptions lint;  ///< suppression string + check thresholds
    /// Static untestability analysis (src/analysis): when true, an
    /// analyze() stage between prepare() and generate_tests() runs the
    /// implication-based untestable-fault identifier over the collapsed
    /// stuck-at universe.  Proven faults are settled Redundant upfront in
    /// ATPG (no PODEM targeting, no simulation), so t_curve becomes the
    /// testability-corrected curve; the uncorrected curve and its fit are
    /// reported alongside (t_curve_raw / fit_raw / dl_vs_t_raw) to expose
    /// the paper's silent bias.  DLPROJ_ANALYSIS=0/off disables the stage
    /// process-wide when this flag is left true.
    bool analysis = false;
    /// Knobs for the analysis stage (its budget and worker count are
    /// overridden by `budget` and `parallel`).
    analysis::AnalysisOptions analysis_options;
    /// Defect-count statistics backend for the DL/yield projections
    /// (model/defect_stats_model.h).  Default Poisson — exactly the paper.
    /// A non-Poisson backend set here overrides any cluster_* directives
    /// carried by the rules deck (`defects.clustering`); when left Poisson
    /// the deck's clustering applies.  The backend changes only the fit
    /// stage: weight scaling to target_yield stays Poisson-based either
    /// way, so the prepared design, test set and simulation artifacts are
    /// backend-independent (and cache-shareable across backends).
    model::DefectStatsModel defect_stats;
};

/// A coverage-vs-test-length curve: values[k-1] = coverage after k vectors.
/// One value type for all four measures (T, theta, Gamma, theta_IDDQ).
struct CoverageCurve {
    std::vector<double> values;

    CoverageCurve() = default;
    explicit CoverageCurve(std::vector<double> v) : values(std::move(v)) {}

    std::size_t size() const { return values.size(); }
    bool empty() const { return values.empty(); }
    double operator[](std::size_t i) const { return values[i]; }
    /// Coverage after the full sequence (0 if no vectors were applied).
    double final() const { return values.empty() ? 0.0 : values.back(); }
};

struct ExperimentResult {
    /// Record of a budget stop: which stage ran out, why, and how far it
    /// got (units are stage-specific: target faults for "atpg", vectors
    /// for "switch-sim"; stage "lint" with reason LintFailed means static
    /// analysis rejected the inputs before anything ran).  Everything in
    /// the result reflects the completed prefix; absent when the run
    /// completed naturally.
    struct Interruption {
        std::string stage;
        support::StopReason reason = support::StopReason::None;
        std::size_t completed = 0;
        std::size_t total = 0;
    };

    // Workload facts.
    std::size_t mapped_gates = 0;
    std::size_t stuck_faults = 0;       ///< collapsed stuck-at universe
    std::size_t realistic_faults = 0;   ///< extracted fault list
    std::size_t transistors = 0;
    int vector_count = 0;
    int random_vectors = 0;
    double yield = 1.0;                 ///< after scaling
    double raw_total_weight = 0.0;      ///< before scaling
    std::int64_t die_area = 0;
    std::map<std::string, double> weight_by_class;
    std::vector<double> fault_weights;  ///< per realistic fault (scaled)
    /// Per realistic fault (parallel to fault_weights): 1-based index of
    /// the first vector whose static response detects the fault, -1 if the
    /// whole sequence never does.  Copied from the simulate() stage so
    /// wafer-level Monte Carlo studies can rebuild exact per-fault
    /// verdicts at any truncated test length k ("detected within k"
    /// means 1 <= first_detected_at[i] <= k).
    std::vector<int> first_detected_at;
    /// Same convention for IDDQ detection (-1 for opens: no current
    /// signature).
    std::vector<int> iddq_detected_at;

    // Coverage curves, index k-1 = after k vectors.
    CoverageCurve t_curve;      ///< stuck-at T(k); testability-corrected
                                ///< when the analysis stage ran
    /// Uncorrected stuck-at coverage detected / |universe| (no redundancy
    /// exclusion — the paper's silent bias).  Only computed when the
    /// analysis stage ran; empty otherwise.
    CoverageCurve t_curve_raw;
    CoverageCurve theta_curve;  ///< weighted realistic theta(k)
    CoverageCurve gamma_curve;  ///< unweighted realistic Gamma(k)
    /// theta(k) when static voltage testing is complemented by IDDQ
    /// measurements (the paper's zero-defect recommendation).
    CoverageCurve theta_iddq_curve;

    // Defect-level points (T(k), DL(theta(k))) and (Gamma(k), DL(theta(k))).
    std::vector<model::FalloutPoint> dl_vs_t;
    std::vector<model::FalloutPoint> dl_vs_gamma;
    /// DL(theta(k)) against the uncorrected T(k) (analysis stage only).
    std::vector<model::FalloutPoint> dl_vs_t_raw;

    // Fits.
    model::ProposedFit fit;           ///< (R, theta_max) of eq (11)
    /// Eq (11) fit against the uncorrected curve (analysis stage only);
    /// comparing fit_raw.R to fit.R quantifies the redundancy bias.
    model::ProposedFit fit_raw;
    model::CoverageLaw t_law;         ///< fitted stuck-at susceptibility
    model::CoverageLaw theta_law;     ///< fitted realistic susceptibility

    /// Faults proven untestable by the analysis stage (0 when it did not
    /// run), plus the stage's work counters.
    std::size_t untestable_faults = 0;
    analysis::AnalysisStats analysis_stats;

    /// The defect-statistics backend the projections below used:
    /// options.defect_stats when non-Poisson, else the rules deck's
    /// clustering, else Poisson.
    model::DefectStatsModel defect_stats;
    /// Yield under the backend, Y = E[e^-Lambda] at the scaled total
    /// weight (bit-identical to `yield` for the Poisson backend).
    double stat_yield = 1.0;
    /// Clustered DL(theta(k)) against T(k) under a non-Poisson backend
    /// (empty for Poisson — dl_vs_t already is the Poisson projection).
    /// Same sample indices as dl_vs_t, so the two are directly
    /// comparable point by point.
    std::vector<model::FalloutPoint> dl_vs_t_clustered;
    /// Joint (R, theta_max, alpha) fit of the clustered eq (11) to
    /// dl_vs_t_clustered (non-Poisson backends only; a self-consistency
    /// check that the clustered fitter recovers the generating shape).
    model::ClusteredFit fit_clustered;

    /// n-detection quality of the stuck-at test set, graded against the
    /// options.atpg.ndetect target over testable (non-redundant) faults
    /// (Pomeranz & Reddy worst/average case; trivial at the default n=1).
    model::NDetectProfile ndetect;

    /// Static-analysis findings for the inputs this result was computed
    /// from (empty when the lint gate is disabled).  A lint failure leaves
    /// everything else in the result empty and sets interruption to stage
    /// "lint".
    lint::LintReport lint;

    /// Set when a budget stopped the run early; fits cover the completed
    /// prefix of the curves.
    std::optional<Interruption> interruption;
};

/// Staged experiment pipeline with per-stage artifact caching.
///
/// Stages form a dependency chain; calling a later stage runs the earlier
/// ones on demand:
///   prepare()        techmap -> layout -> switch netlist -> extraction
///   analyze()        static implication analysis -> untestability marks
///                    (optional; run by generate_tests() when
///                    options().analysis is set)
///   generate_tests() collapsed stuck-at universe -> ATPG vectors -> T(k)
///   simulate()       switch-level fault simulation -> theta/Gamma curves
///   fit()            DL points, eq (11) and coverage-law fits -> result
///
/// For sweeps, edit options() and invalidate the first stage whose inputs
/// changed (later stages are dropped automatically); everything upstream is
/// reused.  E.g. a defect-statistics sweep keeps the layout and the ATPG
/// test set and re-runs only extraction + simulation + fit per point.
///
/// Thread-safety: a runner is single-driver — exactly one thread calls the
/// stage methods / options() / invalidate_*(); the returned references are
/// invalidated by the matching invalidate_*() call.  The two thread-safe
/// entry points for *other* threads are options().budget.cancel.request()
/// (cooperative stop at the next unit boundary) and the progress callback,
/// which is invoked on the driving thread but may relay to anything.
///
/// Determinism: for fixed options (including parallel.threads — see the
/// prefix contract in support/cancel.h), every artifact is bit-identical
/// run to run; an interrupted run's artifacts are bit-identical prefixes
/// of the unbounded run's.
///
/// Telemetry: each stage that actually runs records a span
/// (flow.prepare/generate_tests/simulate/fit, with techmap/layout/extract
/// children under prepare) and flow.<stage>.cache_hit/cache_miss counters;
/// budget stops annotate the active stage span (src/obs/telemetry.h).
class ExperimentRunner {
public:
    explicit ExperimentRunner(netlist::Circuit circuit,
                              ExperimentOptions options = {});

    struct PreparedDesign {
        netlist::Circuit mapped;
        layout::ChipLayout chip;
        switchsim::SwitchNetlist swnet;
        extract::ExtractionResult extraction;  ///< weights yield-scaled
        double yield = 1.0;
        double raw_total_weight = 0.0;
        std::map<std::string, double> weight_by_class;  ///< pre-scaling
    };
    struct AnalysisData {
        std::vector<gatesim::StuckAtFault> stuck;  ///< collapsed universe
        std::vector<std::uint8_t> untestable;  ///< parallel marks
        std::vector<analysis::UntestableProof> proofs;
        analysis::AnalysisStats stats;
        /// Budget outcome: marks cover the exact pivot prefix the stage
        /// completed (stats.pivots_done of stats.pivots_total).
        support::StopReason stop = support::StopReason::None;
    };
    struct TestSet {
        std::vector<gatesim::StuckAtFault> stuck;  ///< collapsed universe
        atpg::TestGenResult tests;
        CoverageCurve t_curve;  ///< corrected when analysis marks were used
        CoverageCurve t_curve_raw;  ///< uncorrected; empty unless analysis
    };
    struct SimulationData {
        CoverageCurve theta_curve;
        CoverageCurve gamma_curve;
        CoverageCurve theta_iddq_curve;
        std::vector<int> first_detected_at;  ///< per realistic fault
        std::vector<int> iddq_detected_at;
        /// Budget outcome: vectors_done of vectors_total were simulated;
        /// the curves have vectors_done entries.
        support::StopReason stop = support::StopReason::None;
        std::size_t vectors_done = 0;
        std::size_t vectors_total = 0;
    };

    const PreparedDesign& prepare();
    /// Static untestability analysis over the collapsed universe of the
    /// mapped circuit.  generate_tests() runs it on demand when
    /// options().analysis is set; calling it directly always analyzes.
    const AnalysisData& analyze();
    const TestSet& generate_tests();
    const SimulationData& simulate();
    const ExperimentResult& fit();
    /// All stages; equivalent to fit().
    const ExperimentResult& run() { return fit(); }

    // External-cache seeding (src/campaign): hand this runner a stage
    // artifact computed by an identical configuration in an earlier
    // process, so the corresponding stage is skipped.  The runner trusts
    // the caller to match artifact and configuration — the campaign store
    // guarantees it by content-addressing artifacts with a hash of every
    // input — and the artifact counts as a cache hit for the stage's
    // flow.*.cache_hit counter.  Each call drops all downstream artifacts.
    /// Seeds the collapsed stuck-at universe; generate_tests() will skip
    /// the collapse but still run ATPG (and, when the lint gate is on,
    /// still cross-validate the injected list against the circuit).
    void inject_collapsed_faults(std::vector<gatesim::StuckAtFault> stuck);
    /// Seeds the analysis artifact (collapsed universe + untestability
    /// marks); generate_tests() will consume the marks without re-running
    /// the implication engine.
    void inject_analysis(AnalysisData analysis);
    /// Seeds the whole test-generation artifact (fault list, vectors,
    /// T(k)).  The faults lint sweep is not re-run: the artifact was
    /// linted when first computed from the same inputs.
    void inject_tests(TestSet tests);
    /// Seeds the switch-level simulation artifact (theta/Gamma curves and
    /// detection tables).
    void inject_simulation(SimulationData sim);

    /// Mutable options for sweeps; pair edits with the matching
    /// invalidate_*() call.
    ExperimentOptions& options() { return options_; }
    const ExperimentOptions& options() const { return options_; }

    /// Drop cached artifacts after an options edit.  Each call also drops
    /// every stage downstream of the named one.
    void invalidate_all();         ///< techmap/layout options changed
    void invalidate_extraction();  ///< defect stats / extract options
    void invalidate_analysis();    ///< analysis options changed
    void invalidate_tests();       ///< ATPG options changed
    void invalidate_simulation();  ///< sim params / weighted / parallel

    /// Observer for stage transitions and long-run simulation progress.
    void set_progress(ProgressFn progress) { progress_ = std::move(progress); }

    /// Merged static-analysis findings gathered so far (circuit + rules
    /// sweeps from prepare(), fault sweep from generate_tests()).  Valid
    /// after the corresponding stage ran — including after it threw
    /// lint::LintError.
    lint::LintReport lint_report() const;

private:
    void report(std::string_view stage, std::size_t done, std::size_t total);
    /// Runs the prepare-stage lint sweeps (circuit when `circuit_sweep`,
    /// rules always); throws lint::LintError on error findings after
    /// caching a diagnostics-only result_.
    void run_lint_gate(bool circuit_sweep);
    /// Caches the diagnostics-carrying failure result and throws.
    [[noreturn]] void fail_lint();

    netlist::Circuit circuit_;
    ExperimentOptions options_;
    ProgressFn progress_;

    /// Cache-injected collapsed fault universe (inject_collapsed_faults);
    /// used by generate_tests() in place of the collapse.
    std::optional<std::vector<gatesim::StuckAtFault>> injected_stuck_;
    std::optional<PreparedDesign> prepared_;
    bool extraction_dirty_ = true;  ///< prepared_'s extraction needs redo
    std::optional<AnalysisData> analysis_;
    std::optional<TestSet> tests_;
    std::optional<SimulationData> sim_data_;
    std::optional<ExperimentResult> result_;

    // Per-artifact lint findings; reset by the matching invalidate_*().
    std::optional<lint::LintReport> circuit_lint_;
    std::optional<lint::LintReport> rules_lint_;
    std::optional<lint::LintReport> faults_lint_;
};

/// Runs the full experiment on a circuit in one call.  Deterministic in
/// options (including options.parallel.threads).
ExperimentResult run_experiment(const netlist::Circuit& circuit,
                                const ExperimentOptions& options = {});

/// Maps extracted faults onto the switch-level fault model.
std::vector<switchsim::WeightedFault> to_switch_faults(
    const extract::ExtractionResult& extraction,
    const layout::ChipLayout& chip, const switchsim::SwitchNetlist& net);

}  // namespace dlp::flow
