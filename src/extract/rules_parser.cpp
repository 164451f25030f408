#include "extract/rules_parser.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "support/parse.h"

namespace dlp::extract {

namespace {

std::optional<cell::Layer> layer_by_name(const std::string& name) {
    for (int li = 0; li < cell::kLayerCount; ++li) {
        const auto layer = static_cast<cell::Layer>(li);
        if (name == cell::layer_name(layer)) return layer;
    }
    return std::nullopt;
}

[[noreturn]] void fail(int line, const std::string& what) {
    throw support::ParseError("rules", line, what);
}

}  // namespace

DefectStatistics parse_defect_rules(const std::string& text) {
    DefectStatistics stats;
    stats.x0 = 2.0;
    double unit = 1.0;
    double cluster_alpha = 0.0;  // plain negbin shape, 0 = not given
    // Collect raw entries first so `unit` can appear anywhere.
    struct Entry {
        int line;
        std::string kind;
        std::string layer;
        double value;
    };
    std::vector<Entry> entries;

    std::istringstream in(text);
    std::string line_text;
    int line_no = 0;
    while (std::getline(in, line_text)) {
        ++line_no;
        const size_t hash = line_text.find('#');
        if (hash != std::string::npos) line_text.erase(hash);
        std::istringstream ls(line_text);
        std::string kind;
        if (!(ls >> kind)) continue;  // blank
        Entry e{line_no, kind, "", 0.0};
        if (kind == "sizebin") {
            // `sizebin <lo> <hi> <prob>`: repeatable, so it bypasses the
            // duplicate-directive check below.  Interval/overlap semantics
            // are the lint layer's job; the parser only rejects values no
            // deck could mean.
            DefectStatistics::SizeBin bin;
            if (!(ls >> bin.lo >> bin.hi >> bin.prob))
                fail(line_no, "expected 'sizebin <lo> <hi> <prob>'");
            std::string extra;
            if (ls >> extra) fail(line_no, "trailing token '" + extra + "'");
            if (!std::isfinite(bin.lo) || !std::isfinite(bin.hi) ||
                !std::isfinite(bin.prob))
                fail(line_no, "sizebin values must be finite");
            if (bin.hi <= bin.lo)
                fail(line_no, "sizebin needs lo < hi");
            if (bin.prob < 0.0)
                fail(line_no, "sizebin probability must be >= 0");
            bin.line = line_no;
            stats.size_bins.push_back(bin);
            continue;
        }
        if (kind == "cluster_region") {
            // `cluster_region <fraction> <alpha>`: repeatable like sizebin.
            // Fraction normalization is the lint layer's job; the parser
            // only rejects values no deck could mean.
            model::RegionDensity region;
            if (!(ls >> region.fraction >> region.alpha))
                fail(line_no, "expected 'cluster_region <fraction> <alpha>'");
            std::string extra;
            if (ls >> extra) fail(line_no, "trailing token '" + extra + "'");
            if (!std::isfinite(region.fraction) ||
                !std::isfinite(region.alpha))
                fail(line_no, "cluster_region values must be finite");
            if (!(region.fraction > 0.0))
                fail(line_no, "cluster_region fraction must be > 0");
            if (region.alpha < 0.0)
                fail(line_no, "cluster_region alpha must be >= 0");
            stats.clustering.regions.push_back(region);
            if (stats.clustering_line == 0) stats.clustering_line = line_no;
            continue;
        }
        if (kind == "short" || kind == "open") {
            if (!(ls >> e.layer >> e.value))
                fail(line_no, "expected '" + kind + " <layer> <density>'");
        } else if (kind == "unit" || kind == "x0" || kind == "pinhole" ||
                   kind == "contact_open" || kind == "cluster_alpha" ||
                   kind == "cluster_wafer" || kind == "cluster_die") {
            if (!(ls >> e.value))
                fail(line_no, "expected '" + kind + " <value>'");
        } else {
            fail(line_no, "unknown directive '" + kind + "'");
        }
        std::string extra;
        if (ls >> extra) fail(line_no, "trailing token '" + extra + "'");
        if (!std::isfinite(e.value))
            fail(line_no, "value must be finite");
        entries.push_back(e);
    }

    // Every directive may appear once: a silently last-winning duplicate is
    // almost always a typo in a hand-edited rules file.
    {
        std::map<std::string, int> first_line;
        for (const Entry& e : entries) {
            const std::string key =
                e.layer.empty() ? e.kind : e.kind + " " + e.layer;
            const auto [it, inserted] = first_line.emplace(key, e.line);
            if (!inserted)
                fail(e.line, "duplicate '" + key + "' (first at line " +
                             std::to_string(it->second) + ")");
        }
    }

    for (const Entry& e : entries)
        if (e.kind == "unit") {
            if (!(e.value > 0.0)) fail(e.line, "unit must be > 0");
            unit = e.value;
        }
    for (const Entry& e : entries) {
        if (e.kind == "unit") continue;
        if (e.kind == "x0") {
            if (!(e.value > 0.0)) fail(e.line, "x0 must be > 0");
            stats.x0 = e.value;
            continue;
        }
        if (e.kind == "cluster_alpha" || e.kind == "cluster_wafer" ||
            e.kind == "cluster_die") {
            // Clustering shapes are dimensionless: `unit` does not apply.
            if (!(e.value > 0.0)) fail(e.line, e.kind + " must be > 0");
            if (e.kind == "cluster_alpha")
                cluster_alpha = e.value;
            else if (e.kind == "cluster_wafer")
                stats.clustering.wafer_alpha = e.value;
            else
                stats.clustering.die_alpha = e.value;
            if (stats.clustering_line == 0 ||
                e.line < stats.clustering_line)
                stats.clustering_line = e.line;
            continue;
        }
        if (!(e.value >= 0.0)) fail(e.line, "density must be >= 0");
        if (e.kind == "pinhole") {
            stats.pinhole_density = e.value * unit;
        } else if (e.kind == "contact_open") {
            stats.contact_open_density = e.value * unit;
        } else {
            const auto layer = layer_by_name(e.layer);
            if (!layer) fail(e.line, "unknown layer '" + e.layer + "'");
            const auto li = static_cast<size_t>(*layer);
            if (e.kind == "short")
                stats.short_density[li] = e.value * unit;
            else
                stats.open_density[li] = e.value * unit;
        }
    }

    // Compose the clustering backend.  cluster_alpha is the flat
    // negative-binomial form; any of cluster_wafer / cluster_die /
    // cluster_region selects the hierarchical form, and mixing the two
    // families is a structural contradiction the parser rejects.
    const bool hierarchical = stats.clustering.wafer_alpha > 0.0 ||
                              stats.clustering.die_alpha > 0.0 ||
                              !stats.clustering.regions.empty();
    if (cluster_alpha > 0.0 && hierarchical)
        fail(stats.clustering_line,
             "cluster_alpha cannot be combined with cluster_wafer / "
             "cluster_die / cluster_region");
    if (cluster_alpha > 0.0) {
        stats.clustering.kind = model::DefectStatsModel::Kind::NegBin;
        stats.clustering.alpha = cluster_alpha;
    } else if (hierarchical) {
        stats.clustering.kind = model::DefectStatsModel::Kind::Hierarchical;
    }
    return stats;
}

DefectStatistics load_defect_rules(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_defect_rules(buf.str());
}

std::string to_rules(const DefectStatistics& stats) {
    std::ostringstream out;
    out.precision(12);
    out << "# defect statistics (densities in defects per lambda^2)\n";
    out << "unit 1\n";
    out << "x0 " << stats.x0 << "\n";
    for (int li = 0; li < cell::kLayerCount; ++li) {
        const auto layer = static_cast<cell::Layer>(li);
        if (stats.short_density[li] > 0.0)
            out << "short " << cell::layer_name(layer) << " "
                << stats.short_density[li] << "\n";
        if (stats.open_density[li] > 0.0)
            out << "open " << cell::layer_name(layer) << " "
                << stats.open_density[li] << "\n";
    }
    if (stats.contact_open_density > 0.0)
        out << "contact_open " << stats.contact_open_density << "\n";
    if (stats.pinhole_density > 0.0)
        out << "pinhole " << stats.pinhole_density << "\n";
    for (const auto& bin : stats.size_bins)
        out << "sizebin " << bin.lo << " " << bin.hi << " " << bin.prob
            << "\n";
    // Clustering directives serialize only when the deck opted in, so the
    // canonical text (and thus rules_hash) of every Poisson deck is
    // byte-identical to what it was before clustering existed.
    if (stats.clustering.kind == model::DefectStatsModel::Kind::NegBin) {
        out << "cluster_alpha " << stats.clustering.alpha << "\n";
    } else if (stats.clustering.kind ==
               model::DefectStatsModel::Kind::Hierarchical) {
        if (stats.clustering.wafer_alpha > 0.0)
            out << "cluster_wafer " << stats.clustering.wafer_alpha << "\n";
        if (stats.clustering.die_alpha > 0.0)
            out << "cluster_die " << stats.clustering.die_alpha << "\n";
        for (const auto& region : stats.clustering.regions)
            out << "cluster_region " << region.fraction << " "
                << region.alpha << "\n";
    }
    return out.str();
}

}  // namespace dlp::extract
