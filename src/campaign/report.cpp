#include "campaign/report.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "model/defect_stats_model.h"
#include "model/dl_models.h"
#include "support/json_quote.h"

namespace dlp::campaign {

namespace {

/// Shortest round-trip decimal for a double ("%.17g" is exact for IEEE
/// doubles; the formatting is locale-independent and stable run to run,
/// which the byte-identical report guarantees rely on).
std::string num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void put_curve_json(std::ostream& out, const char* name,
                    const flow::CoverageCurve& c, bool last = false) {
    out << "      \"" << name << "\": [";
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (i) out << ", ";
        out << num(c[i]);
    }
    out << "]" << (last ? "" : ",") << "\n";
}

double residual_ppm(const CellResult& c) {
    // 1 - Y^(1-theta_max), the fitted residual-DL floor of eq (11).
    model::ProposedModel m{c.yield, c.fit_r, c.fit_theta_max};
    return model::to_ppm(m.residual_dl());
}

double dl_ppm(const CellResult& c) {
    // Achieved defect level from the measured weighted realistic
    // coverage, eq (3): DL = 1 - Y^(1-theta).  Reported per n-detect
    // cell so DL can be read directly against the target n.
    return model::to_ppm(model::weighted_dl(c.yield, c.theta_curve.final()));
}

double clustered_dl_ppm(const CellResult& c) {
    // DL under the cell's defect-statistics backend, at the Poisson mean
    // lambda = -ln(Y) (weight scaling is Poisson-based for every
    // backend).  Derived from serialized fields only, so a fresh cell and
    // a cache-hit cell report the same bytes.
    const model::DefectStatsModel backend =
        model::parse_defect_stats(c.defect_stats);
    const double lambda = c.yield > 0.0 ? -std::log(c.yield) : 0.0;
    return model::to_ppm(backend.dl(lambda, c.theta_curve.final()));
}

}  // namespace

std::string report_json(const CampaignReport& report) {
    std::ostringstream out;
    out << "{\n";
    out << "  \"campaign\": " << support::json_quote(report.name) << ",\n";
    out << "  \"cells\": [\n";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellResult& c = report.cells[i];
        out << "    {\n";
        out << "      \"index\": " << c.index << ",\n";
        out << "      \"circuit\": " << support::json_quote(c.circuit)
            << ",\n";
        out << "      \"rules\": " << support::json_quote(c.rules) << ",\n";
        out << "      \"seed\": " << c.seed << ",\n";
        out << "      \"atpg\": " << support::json_quote(c.atpg) << ",\n";
        if (report.ndetect_axis)
            out << "      \"ndetect\": " << c.ndetect << ",\n";
        if (report.analysis_axis)
            out << "      \"analysis\": " << (c.analysis ? "true" : "false")
                << ",\n";
        if (report.defect_stats_axis)
            out << "      \"defect_stats\": "
                << support::json_quote(c.defect_stats) << ",\n";
        out << "      \"mapped_gates\": " << c.mapped_gates << ",\n";
        out << "      \"stuck_faults\": " << c.stuck_faults << ",\n";
        out << "      \"realistic_faults\": " << c.realistic_faults << ",\n";
        out << "      \"transistors\": " << c.transistors << ",\n";
        out << "      \"vector_count\": " << c.vector_count << ",\n";
        out << "      \"random_vectors\": " << c.random_vectors << ",\n";
        out << "      \"yield\": " << num(c.yield) << ",\n";
        out << "      \"t_final\": " << num(c.t_curve.final()) << ",\n";
        out << "      \"theta_final\": " << num(c.theta_curve.final())
            << ",\n";
        out << "      \"gamma_final\": " << num(c.gamma_curve.final())
            << ",\n";
        out << "      \"theta_iddq_final\": "
            << num(c.theta_iddq_curve.final()) << ",\n";
        out << "      \"fit\": {\"r\": " << num(c.fit_r)
            << ", \"theta_max\": " << num(c.fit_theta_max)
            << ", \"rms\": " << num(c.fit_rms)
            << ", \"residual_ppm\": " << num(residual_ppm(c)) << "},\n";
        if (report.ndetect_axis)
            out << "      \"ndetect_quality\": {\"min_detections\": "
                << c.ndetect_min << ", \"mean_detections\": "
                << num(c.ndetect_mean) << ", \"worst_case_coverage\": "
                << num(c.worst_case_coverage) << ", \"avg_case_coverage\": "
                << num(c.avg_case_coverage) << ", \"dl_ppm\": "
                << num(dl_ppm(c)) << "},\n";
        if (report.analysis_axis)
            out << "      \"testability\": {\"untestable_faults\": "
                << c.untestable_faults << ", \"t_raw_final\": "
                << num(c.t_curve_raw.final()) << ", \"fit_raw_r\": "
                << num(c.fit_raw_r) << ", \"fit_raw_theta_max\": "
                << num(c.fit_raw_theta_max) << "},\n";
        if (report.defect_stats_axis)
            out << "      \"clustering\": {\"stat_yield\": "
                << num(c.stat_yield) << ", \"dl_ppm\": "
                << num(clustered_dl_ppm(c)) << ", \"fit_c_r\": "
                << num(c.fit_c_r) << ", \"fit_c_theta_max\": "
                << num(c.fit_c_theta_max) << ", \"fit_c_alpha\": "
                << num(c.fit_c_alpha) << ", \"fit_c_rms\": "
                << num(c.fit_c_rms) << "},\n";
        out << "      \"interruption\": "
            << support::json_quote(c.interruption) << ",\n";
        put_curve_json(out, "t_curve", c.t_curve);
        if (report.analysis_axis)
            put_curve_json(out, "t_curve_raw", c.t_curve_raw);
        put_curve_json(out, "theta_curve", c.theta_curve);
        put_curve_json(out, "gamma_curve", c.gamma_curve);
        put_curve_json(out, "theta_iddq_curve", c.theta_iddq_curve,
                       /*last=*/true);
        out << "    }" << (i + 1 < report.cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

std::string report_csv(const CampaignReport& report, bool header) {
    std::ostringstream out;
    if (header) {
        out << "index,circuit,rules,seed,atpg,";
        if (report.ndetect_axis) out << "ndetect,";
        if (report.analysis_axis) out << "analysis,";
        if (report.defect_stats_axis) out << "defect_stats,";
        out << "mapped_gates,stuck_faults,"
               "realistic_faults,vectors,yield,t_final,theta_final,"
               "gamma_final,theta_iddq_final,fit_r,fit_theta_max,"
               "residual_ppm,";
        if (report.ndetect_axis)
            out << "min_detections,mean_detections,worst_case_coverage,"
                   "avg_case_coverage,dl_ppm,";
        if (report.analysis_axis)
            out << "untestable_faults,t_raw_final,fit_raw_r,"
                   "fit_raw_theta_max,";
        if (report.defect_stats_axis)
            out << "stat_yield,cluster_dl_ppm,fit_c_r,fit_c_theta_max,"
                   "fit_c_alpha,fit_c_rms,";
        out << "interruption\n";
    }
    for (const CellResult& c : report.cells) {
        out << c.index << "," << c.circuit << "," << c.rules << "," << c.seed
            << "," << c.atpg << ",";
        if (report.ndetect_axis) out << c.ndetect << ",";
        if (report.analysis_axis) out << (c.analysis ? "on" : "off") << ",";
        if (report.defect_stats_axis) out << c.defect_stats << ",";
        out << c.mapped_gates << ","
            << c.stuck_faults << "," << c.realistic_faults << ","
            << c.vector_count << "," << num(c.yield) << ","
            << num(c.t_curve.final()) << "," << num(c.theta_curve.final())
            << "," << num(c.gamma_curve.final()) << ","
            << num(c.theta_iddq_curve.final()) << "," << num(c.fit_r) << ","
            << num(c.fit_theta_max) << "," << num(residual_ppm(c)) << ",";
        if (report.ndetect_axis)
            out << c.ndetect_min << "," << num(c.ndetect_mean) << ","
                << num(c.worst_case_coverage) << ","
                << num(c.avg_case_coverage) << "," << num(dl_ppm(c)) << ",";
        if (report.analysis_axis)
            out << c.untestable_faults << "," << num(c.t_curve_raw.final())
                << "," << num(c.fit_raw_r) << ","
                << num(c.fit_raw_theta_max) << ",";
        if (report.defect_stats_axis)
            out << num(c.stat_yield) << "," << num(clustered_dl_ppm(c))
                << "," << num(c.fit_c_r) << "," << num(c.fit_c_theta_max)
                << "," << num(c.fit_c_alpha) << "," << num(c.fit_c_rms)
                << ",";
        out << c.interruption << "\n";
    }
    return out.str();
}

std::string stats_json(const CampaignStats& s) {
    std::ostringstream out;
    out << "{\n";
    out << "  \"cells_total\": " << s.cells_total << ",\n";
    out << "  \"cells_selected\": " << s.cells_selected << ",\n";
    out << "  \"cells_completed\": " << s.cells_completed << ",\n";
    out << "  \"cell_hits\": " << s.cell_hits << ",\n";
    out << "  \"cell_misses\": " << s.cell_misses << ",\n";
    out << "  \"tests_hits\": " << s.tests_hits << ",\n";
    out << "  \"tests_misses\": " << s.tests_misses << ",\n";
    out << "  \"sim_hits\": " << s.sim_hits << ",\n";
    out << "  \"sim_misses\": " << s.sim_misses << ",\n";
    out << "  \"faults_hits\": " << s.faults_hits << ",\n";
    out << "  \"faults_misses\": " << s.faults_misses << ",\n";
    out << "  \"analysis_hits\": " << s.analysis_hits << ",\n";
    out << "  \"analysis_misses\": " << s.analysis_misses << ",\n";
    out << "  \"store_corrupt\": " << s.store_corrupt << ",\n";
    out << "  \"stop\": \"" << support::stop_reason_name(s.stop) << "\"\n";
    out << "}\n";
    return out.str();
}

}  // namespace dlp::campaign
