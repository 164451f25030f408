#include "campaign/spec.h"

#include <cmath>
#include <stdexcept>

#include "analysis/untestable.h"
#include "model/defect_stats_model.h"
#include "model/dl_models.h"
#include "support/parse.h"

namespace dlp::campaign {

namespace {

using Opt = flow::ExperimentOptions;

/// A column that reads one CellResult field.
template <auto Field>
double field(const CellResult& c) {
    return static_cast<double>(c.*Field);
}

/// Achieved DL from the measured weighted realistic coverage, eq (3):
/// DL = 1 - Y^(1-theta), read per n-detect cell against the target n.
double dl_ppm(const CellResult& c) {
    return model::to_ppm(model::weighted_dl(c.yield, c.theta_curve.final()));
}

/// DL under the cell's backend at the Poisson mean lambda = -ln(Y) (weight
/// scaling is Poisson-based for every backend).  Derived from serialized
/// fields only, so fresh and cache-hit cells report the same bytes.
double clustered_dl_ppm(const CellResult& c) {
    const double lambda = c.yield > 0.0 ? -std::log(c.yield) : 0.0;
    return model::to_ppm(model::parse_defect_stats(c.defect_stats)
                             .dl(lambda, c.theta_curve.final()));
}

}  // namespace

const std::vector<GridAxis>& grid_axes() {
    using Stage = GridAxis::Stage;
    using Json = GridAxis::Json;
    static const std::vector<GridAxis> axes = {
        // n-detection targets.  The target and the top-up mix (which only
        // matters beyond the first detection) key the test set only when
        // they can change it, so n=1 cells share the classic artifacts.
        {.key = "ndetect", .flag = "--ndetect", .classic = "1",
         .stage = Stage::Tests, .json = Json::Number,
         .group = "ndetect_quality",
         .canonical = [](const std::string& v) {
             const long long n = support::parse_int(v);
             if (n < 1 || n > 64)
                 throw std::runtime_error(
                     "ndetect target out of range [1, 64]: '" + v + "'");
             return std::to_string(n);
         },
         .apply = [](const std::string& v, Opt& o) {
             o.atpg.ndetect = std::stoi(v);
         },
         .key_lines = [](const Opt& o) -> std::string {
             if (o.atpg.ndetect <= 1) return "";
             return "ndetect " + std::to_string(o.atpg.ndetect) +
                    "\nndetect_mix " +
                    std::string(atpg::ndetect_mix_name(o.atpg.ndetect_mix)) +
                    "\n";
         },
         .item_of = [](const CellResult& c) {
             return std::to_string(c.ndetect);
         },
         .columns = {
             {"min_detections", "min_detections",
              field<&CellResult::ndetect_min>},
             {"mean_detections", "mean_detections",
              field<&CellResult::ndetect_mean>},
             {"worst_case_coverage", "worst_case_coverage",
              field<&CellResult::worst_case_coverage>},
             {"avg_case_coverage", "avg_case_coverage",
              field<&CellResult::avg_case_coverage>},
             {"dl_ppm", "dl_ppm", dl_ppm}}},
        // Static untestability analysis.  The DLPROJ_ANALYSIS kill switch
        // applies here, before keying: with the stage disabled the cell
        // computes, and caches, as a classic cell.  Proven faults settle
        // Redundant, which changes the test set.
        {.key = "analysis", .flag = "--analysis", .classic = "off",
         .stage = Stage::Tests, .json = Json::Bool, .group = "testability",
         .canonical = [](const std::string& v) -> std::string {
             return parse_bool(v) ? "on" : "off";
         },
         .apply = [](const std::string& v, Opt& o) {
             o.analysis = v == "on" && analysis::analysis_enabled_from_env();
         },
         .key_lines = [](const Opt& o) -> std::string {
             return o.analysis ? "analysis on\n" : "";
         },
         .item_of = [](const CellResult& c) -> std::string {
             return c.analysis ? "on" : "off";
         },
         .columns = {
             {"untestable_faults", "untestable_faults",
              field<&CellResult::untestable_faults>},
             {"t_raw_final", "t_raw_final",
              [](const CellResult& c) { return c.t_curve_raw.final(); }},
             {"fit_raw_r", "fit_raw_r", field<&CellResult::fit_raw_r>},
             {"fit_raw_theta_max", "fit_raw_theta_max",
              field<&CellResult::fit_raw_theta_max>}},
         .curve = "t_curve_raw",
         .curve_of = [](const CellResult& c) -> const flow::CoverageCurve& {
             return c.t_curve_raw;
         }},
        // Defect-statistics backends, canonical through the model parser
        // ("negbin:inf" is "poisson").  The backend changes nothing before
        // the fit, so it keys only the cell and the faults/tests/sim
        // artifacts are shared across the axis.  (A deck's own cluster_*
        // directives are covered by the rules hash.)
        {.key = "defect_stats", .flag = "--defect-stats", .classic = "poisson",
         .stage = Stage::Cell, .json = Json::String, .group = "clustering",
         .canonical = [](const std::string& v) {
             try {
                 return model::parse_defect_stats(v).describe();
             } catch (const std::invalid_argument& e) {
                 throw std::runtime_error(e.what());
             }
         },
         .apply = [](const std::string& v, Opt& o) {
             o.defect_stats = model::parse_defect_stats(v);
         },
         .key_lines = [](const Opt& o) -> std::string {
             const std::string d = o.defect_stats.describe();
             return d == "poisson" ? "" : "defect_stats " + d + "\n";
         },
         .item_of = [](const CellResult& c) { return c.defect_stats; },
         .columns = {
             {"stat_yield", "stat_yield", field<&CellResult::stat_yield>},
             {"dl_ppm", "cluster_dl_ppm", clustered_dl_ppm},
             {"fit_c_r", "fit_c_r", field<&CellResult::fit_c_r>},
             {"fit_c_theta_max", "fit_c_theta_max",
              field<&CellResult::fit_c_theta_max>},
             {"fit_c_alpha", "fit_c_alpha", field<&CellResult::fit_c_alpha>},
             {"fit_c_rms", "fit_c_rms", field<&CellResult::fit_c_rms>}}},
    };
    return axes;
}

std::vector<std::vector<std::string>> classic_axes() {
    std::vector<std::vector<std::string>> items;
    for (const GridAxis& a : grid_axes()) items.push_back({a.classic});
    return items;
}

}  // namespace dlp::campaign
