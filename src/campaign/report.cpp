#include "campaign/report.h"

#include <cstdio>
#include <sstream>

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

std::string identity_json(const GridAxis& axis, const CellResult& c) {
    const std::string item = axis.item_of(c);
    if (axis.json == GridAxis::Json::String) return support::json_quote(item);
    if (axis.json == GridAxis::Json::Bool)
        return item == "on" ? "true" : "false";
    return item;
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
        for (std::size_t a : report.swept)
            out << "      \"" << grid_axes()[a].key
                << "\": " << identity_json(grid_axes()[a], c) << ",\n";
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
        for (std::size_t a : report.swept) {
            const GridAxis& axis = grid_axes()[a];
            out << "      \"" << axis.group << "\": {";
            for (std::size_t k = 0; k < axis.columns.size(); ++k)
                out << (k ? ", " : "") << "\"" << axis.columns[k].json
                    << "\": " << num(axis.columns[k].value(c));
            out << "},\n";
        }
        out << "      \"interruption\": "
            << support::json_quote(c.interruption) << ",\n";
        put_curve_json(out, "t_curve", c.t_curve);
        for (std::size_t a : report.swept)
            if (grid_axes()[a].curve)
                put_curve_json(out, grid_axes()[a].curve,
                               grid_axes()[a].curve_of(c));
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
        for (std::size_t a : report.swept) out << grid_axes()[a].key << ",";
        out << "mapped_gates,stuck_faults,"
               "realistic_faults,vectors,yield,t_final,theta_final,"
               "gamma_final,theta_iddq_final,fit_r,fit_theta_max,"
               "residual_ppm,";
        for (std::size_t a : report.swept)
            for (const AxisColumn& col : grid_axes()[a].columns)
                out << col.csv << ",";
        out << "interruption\n";
    }
    for (const CellResult& c : report.cells) {
        out << c.index << "," << c.circuit << "," << c.rules << "," << c.seed
            << "," << c.atpg << ",";
        for (std::size_t a : report.swept)
            out << grid_axes()[a].item_of(c) << ",";
        out << c.mapped_gates << ","
            << c.stuck_faults << "," << c.realistic_faults << ","
            << c.vector_count << "," << num(c.yield) << ","
            << num(c.t_curve.final()) << "," << num(c.theta_curve.final())
            << "," << num(c.gamma_curve.final()) << ","
            << num(c.theta_iddq_curve.final()) << "," << num(c.fit_r) << ","
            << num(c.fit_theta_max) << "," << num(residual_ppm(c)) << ",";
        for (std::size_t a : report.swept)
            for (const AxisColumn& col : grid_axes()[a].columns)
                out << num(col.value(c)) << ",";
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
