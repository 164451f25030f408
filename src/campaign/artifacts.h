// Bit-exact serialization of the stage artifacts a campaign caches:
// the collapsed stuck-at fault list, the generated test set (vectors +
// T(k)), the switch-level simulation data (theta/Gamma curves + detection
// tables), and the fitted per-cell result.
//
// Formats are line-oriented text with doubles encoded as the hex of their
// IEEE-754 bit pattern, so a deserialized artifact is bit-identical to the
// one that was stored — the resume-from-cache guarantee ("a resumed
// campaign reproduces the uninterrupted report byte for byte") rests on
// this.  Each artifact kind has exactly one layout, a fixed field order
// written unconditionally (classic cells carry their trivial n-detect,
// analysis and clustering fields too), behind one magic line; parse_*
// throw std::runtime_error on any mismatch, which the campaign runner
// treats as a cache miss.  A layout change bumps the magic, so a cache
// written before it misses once and is recomputed.
#pragma once

#include <string>
#include <vector>

#include "flow/experiment.h"
#include "gatesim/faults.h"

namespace dlp::campaign {

/// One completed grid cell: identity, workload facts, coverage curves and
/// the eq (11) fit.  This is both the "fitted model" cache artifact and
/// one row of the aggregated campaign report.
struct CellResult {
    std::size_t index = 0;  ///< row-major grid index (not serialized)
    std::string circuit;
    std::string rules;
    std::string atpg;
    std::uint64_t seed = 1;

    std::size_t mapped_gates = 0;
    std::size_t stuck_faults = 0;
    std::size_t realistic_faults = 0;
    std::size_t transistors = 0;
    int vector_count = 0;
    int random_vectors = 0;
    double yield = 1.0;

    double fit_r = 1.0;
    double fit_theta_max = 1.0;
    double fit_rms = 0.0;

    // n-detection quality (Pomeranz & Reddy worst/average case over
    // testable faults; see model/ndetect.h).  Trivial at the default
    // target 1, and only reported for campaigns with an ndetect axis.
    int ndetect = 1;             ///< the cell's n-detection target
    int ndetect_min = 0;         ///< min detections over testable faults
    double ndetect_mean = 0.0;   ///< mean detections over testable faults
    double worst_case_coverage = 0.0;  ///< frac of faults at the target
    double avg_case_coverage = 0.0;    ///< mean min(count, n)/n

    // Static untestability analysis (src/analysis).  Only reported for
    // campaigns with an analysis axis; analysis-off cells leave the
    // defaults.
    bool analysis = false;      ///< the analyze() stage ran for this cell
    std::size_t untestable_faults = 0;  ///< faults proven untestable
    double fit_raw_r = 0.0;             ///< eq (11) fit of the raw curve
    double fit_raw_theta_max = 0.0;

    // Defect-statistics backend (model/defect_stats_model.h).  Only
    // reported for campaigns with a defect_stats axis; Poisson cells leave
    // the fit_c_* defaults.
    std::string defect_stats = "poisson";  ///< canonical descriptor
    double stat_yield = 1.0;   ///< yield under the backend (== yield for
                               ///< Poisson)
    double fit_c_r = 0.0;      ///< joint clustered fit of eq (11)
    double fit_c_theta_max = 0.0;
    double fit_c_alpha = 0.0;  ///< recovered clustering shape
    double fit_c_rms = 0.0;    ///< RMS log-DL residual of the joint fit

    /// "" for a complete run, else "<stage>:<reason>" (e.g. a per-cell
    /// vector budget: "switch-sim:VectorBudget").
    std::string interruption;

    flow::CoverageCurve t_curve;  ///< corrected when analysis ran
    /// Uncorrected stuck-at coverage (detected / |universe|); empty unless
    /// the analysis ran.
    flow::CoverageCurve t_curve_raw;
    flow::CoverageCurve theta_curve;
    flow::CoverageCurve gamma_curve;
    flow::CoverageCurve theta_iddq_curve;
};

/// Bit-pattern hex encoding used for doubles ("3fe8000000000000"-style).
std::string double_hex(double v);
double parse_double_hex(const std::string& hex);

std::string serialize_faults(const std::vector<gatesim::StuckAtFault>& f);
std::vector<gatesim::StuckAtFault> parse_faults(const std::string& text);

std::string serialize_tests(const flow::ExperimentRunner::TestSet& t);
flow::ExperimentRunner::TestSet parse_tests(const std::string& text);

std::string serialize_simulation(
    const flow::ExperimentRunner::SimulationData& d);
flow::ExperimentRunner::SimulationData parse_simulation(
    const std::string& text);

std::string serialize_cell(const CellResult& c);
CellResult parse_cell(const std::string& text);

/// The analysis-stage artifact: collapsed universe + untestability marks +
/// work counters.  Proof objects are deliberately NOT serialized (they are
/// bulky and only the marks/stats feed the downstream stages); a parsed
/// artifact carries an empty proof list.
std::string serialize_analysis(const flow::ExperimentRunner::AnalysisData& a);
flow::ExperimentRunner::AnalysisData parse_analysis(const std::string& text);

}  // namespace dlp::campaign
