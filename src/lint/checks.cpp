#include "lint/checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "atpg/scoap.h"
#include "netlist/bench_parser.h"
#include "support/env.h"

namespace dlp::lint {

namespace {

std::string fmt_double(double v) {
    std::ostringstream out;
    out.precision(6);
    out << v;
    return out.str();
}

}  // namespace

std::optional<netlist::Circuit> lint_bench_text(const std::string& text,
                                                const std::string& file,
                                                DiagnosticEngine& engine) {
    using Kind = netlist::BenchFindingKind;
    const netlist::BenchScan scan = netlist::scan_bench(text);
    for (const netlist::BenchFinding& f : scan.findings) {
        const char* check = "bench-syntax";
        switch (f.kind) {
            case Kind::Syntax: break;
            case Kind::MultiDriven: check = "net-multi-driven"; break;
            case Kind::OutputConflict: check = "output-conflict"; break;
            case Kind::Undriven: check = "net-undriven"; break;
            case Kind::Cycle: check = "comb-cycle"; break;
        }
        engine.report(Severity::Error, check, f.message, {file, f.line},
                      f.object);
    }
    if (!scan.findings.empty()) return std::nullopt;
    return netlist::parse_bench(scan, file);
}

void lint_circuit(const netlist::Circuit& circuit, DiagnosticEngine& engine,
                  const LintOptions& options) {
    using netlist::GateType;
    using netlist::NetId;
    const auto fanouts = circuit.fanouts();
    // SCOAP reuse: a net with infinite observability has no structural
    // path to a primary output, so every fault in its cone is statically
    // undetectable — dead logic that still contributes critical area (and
    // therefore weight) to the yield model.
    const atpg::Testability t = atpg::compute_testability(circuit);
    for (NetId n = 0; n < circuit.gate_count(); ++n) {
        const netlist::Gate& g = circuit.gate(n);
        if (fanouts[n].empty() && !circuit.is_output(n)) {
            engine.report(Severity::Error, "output-dangling",
                          "net '" + g.name + "' (" +
                          netlist::gate_type_name(g.type) +
                          ") drives nothing and is not a primary output; "
                          "its faults are undetectable but its critical "
                          "area still counts toward Y",
                          {}, g.name);
        } else if (t.co[n] >= atpg::kScoapInfinite) {
            engine.report(Severity::Warning, "gate-unreachable",
                          "no primary output is reachable from net '" +
                          g.name + "'; its logic cone is dead and bounds "
                          "the attainable coverage",
                          {}, g.name);
        }
        if (g.type != GateType::Input &&
            static_cast<int>(g.fanin.size()) > options.max_fanin)
            engine.report(Severity::Warning, "fanin-excessive",
                          "gate '" + g.name + "' has " +
                          std::to_string(g.fanin.size()) + " fanin pins "
                          "(limit " + std::to_string(options.max_fanin) +
                          "); run techmap to lower the arity before "
                          "layout",
                          {}, g.name);
    }
}

void lint_rules(const extract::DefectStatistics& stats,
                DiagnosticEngine& engine, const std::string& file) {
    const auto invalid = [](double v) {
        return !std::isfinite(v) || v < 0.0;
    };
    // Value sanity: in-memory decks bypass the rules parser's checks.
    if (!std::isfinite(stats.x0) || stats.x0 <= 0.0)
        engine.report(Severity::Error, "rules-density-unnormalized",
                      "x0 (minimum spot diameter) must be positive and "
                      "finite, got " + fmt_double(stats.x0),
                      {file, 0}, "x0");
    for (int li = 0; li < cell::kLayerCount; ++li) {
        const auto layer = static_cast<cell::Layer>(li);
        const std::string name = cell::layer_name(layer);
        if (invalid(stats.short_density[li]))
            engine.report(Severity::Error, "rules-density-unnormalized",
                          "short density for layer '" + name +
                          "' is negative or non-finite",
                          {file, 0}, "short " + name);
        if (invalid(stats.open_density[li]))
            engine.report(Severity::Error, "rules-density-unnormalized",
                          "open density for layer '" + name +
                          "' is negative or non-finite",
                          {file, 0}, "open " + name);
    }
    if (invalid(stats.contact_open_density))
        engine.report(Severity::Error, "rules-density-unnormalized",
                      "contact_open density is negative or non-finite",
                      {file, 0}, "contact_open");
    if (invalid(stats.pinhole_density))
        engine.report(Severity::Error, "rules-density-unnormalized",
                      "pinhole density is negative or non-finite",
                      {file, 0}, "pinhole");

    // Size bins: a measured histogram refining the closed-form p(x)
    // density.  Bins must be valid intervals, must not overlap, and their
    // probability mass should be normalized — an overlap double-counts a
    // diameter band, which skews every weight downstream.
    using Bin = extract::DefectStatistics::SizeBin;
    std::vector<const Bin*> bins;
    bins.reserve(stats.size_bins.size());
    for (const Bin& b : stats.size_bins) {
        if (!std::isfinite(b.lo) || !std::isfinite(b.hi) ||
            !std::isfinite(b.prob) || b.hi <= b.lo || b.prob < 0.0) {
            engine.report(Severity::Error, "rules-density-unnormalized",
                          "sizebin [" + fmt_double(b.lo) + ", " +
                          fmt_double(b.hi) + ") with probability " +
                          fmt_double(b.prob) + " is not a valid bin",
                          {file, b.line}, "sizebin");
            continue;
        }
        bins.push_back(&b);
    }
    std::sort(bins.begin(), bins.end(),
              [](const Bin* a, const Bin* b) { return a->lo < b->lo; });
    for (size_t i = 1; i < bins.size(); ++i)
        if (bins[i]->lo < bins[i - 1]->hi)
            engine.report(Severity::Error, "rules-overlapping-bins",
                          "sizebin [" + fmt_double(bins[i]->lo) + ", " +
                          fmt_double(bins[i]->hi) + ") overlaps [" +
                          fmt_double(bins[i - 1]->lo) + ", " +
                          fmt_double(bins[i - 1]->hi) +
                          ") — the shared diameter band is double-counted",
                          {file, bins[i]->line}, "sizebin");
    if (!stats.size_bins.empty()) {
        double sum = 0.0;
        for (const Bin& b : stats.size_bins) sum += b.prob;
        if (std::isfinite(sum) && std::fabs(sum - 1.0) > 1e-6)
            engine.report(Severity::Warning, "rules-density-unnormalized",
                          "size-bin probability mass sums to " +
                          fmt_double(sum) +
                          ", expected 1; the extractor does not "
                          "renormalize",
                          {file, 0}, "sizebin");
    }

    // Clustering directives (cluster_alpha / cluster_wafer / cluster_die /
    // cluster_region): the shapes feed the clustered DL projections in
    // model/defect_stats_model.h, so a bad shape or an unnormalized region
    // map skews yield and DL exactly like an unnormalized size histogram.
    // In-memory decks bypass the parser's structural checks entirely.
    {
        using Kind = model::DefectStatsModel::Kind;
        const model::DefectStatsModel& c = stats.clustering;
        const int line = stats.clustering_line;
        const auto bad_shape = [](double a) {
            return !std::isfinite(a) || a < 0.0;
        };
        const auto report_shape = [&](const std::string& what, double a) {
            if (bad_shape(a))
                engine.report(Severity::Error, "rules-bad-clustering",
                              what + " clustering shape " + fmt_double(a) +
                              " is negative or non-finite",
                              {file, line}, what);
            else if (a > 0.0 && a < 1e-2)
                engine.report(Severity::Warning, "rules-bad-clustering",
                              what + " clustering shape " + fmt_double(a) +
                              " is implausibly small (< 0.01): nearly all "
                              "defects land on a vanishing fraction of "
                              "dies; check for a unit slip",
                              {file, line}, what);
        };
        if (c.kind == Kind::NegBin) {
            if (!std::isfinite(c.alpha) || c.alpha <= 0.0)
                engine.report(Severity::Error, "rules-bad-clustering",
                              "cluster_alpha must be positive and finite, "
                              "got " + fmt_double(c.alpha),
                              {file, line}, "cluster_alpha");
            else
                report_shape("cluster_alpha", c.alpha);
        } else if (c.kind == Kind::Hierarchical) {
            report_shape("cluster_wafer", c.wafer_alpha);
            report_shape("cluster_die", c.die_alpha);
            double fraction_sum = 0.0;
            bool fractions_ok = !c.regions.empty();
            for (const model::RegionDensity& region : c.regions) {
                report_shape("cluster_region", region.alpha);
                if (!std::isfinite(region.fraction) ||
                    region.fraction <= 0.0 || region.fraction > 1.0) {
                    engine.report(Severity::Error, "rules-bad-clustering",
                                  "cluster_region fraction " +
                                  fmt_double(region.fraction) +
                                  " is outside (0, 1]",
                                  {file, line}, "cluster_region");
                    fractions_ok = false;
                    continue;
                }
                fraction_sum += region.fraction;
            }
            if (fractions_ok && std::fabs(fraction_sum - 1.0) > 1e-6)
                engine.report(Severity::Error, "rules-bad-clustering",
                              "cluster_region fractions sum to " +
                              fmt_double(fraction_sum) +
                              ", expected 1; the region map must "
                              "partition the die area",
                              {file, line}, "cluster_region");
            if (!bad_shape(c.wafer_alpha) && !bad_shape(c.die_alpha) &&
                c.wafer_alpha == 0.0 && c.die_alpha == 0.0) {
                bool any_region_mixing = false;
                for (const model::RegionDensity& region : c.regions)
                    any_region_mixing |= region.alpha > 0.0;
                if (!any_region_mixing)
                    engine.report(
                        Severity::Warning, "rules-bad-clustering",
                        "hierarchical clustering with every shape "
                        "disabled is exactly Poisson; drop the cluster_* "
                        "directives or give some level a finite shape",
                        {file, line}, "cluster_region");
            }
        }
    }
}

void lint_faults(const netlist::Circuit& circuit,
                 std::span<const gatesim::StuckAtFault> collapsed,
                 DiagnosticEngine& engine) {
    using gatesim::StuckAtFault;
    using netlist::NetId;
    const auto universe = gatesim::full_fault_universe(circuit);
    const auto cls = gatesim::equivalence_classes(circuit, universe);
    const size_t nclasses =
        cls.empty() ? 0 : *std::max_element(cls.begin(), cls.end()) + 1;

    using Key = std::tuple<NetId, NetId, int, bool>;
    const auto key = [](const StuckAtFault& f) {
        return Key{f.net, f.reader, f.pin, f.stuck_value};
    };
    std::map<Key, size_t> index;
    for (size_t i = 0; i < universe.size(); ++i) index[key(universe[i])] = i;

    constexpr size_t kNone = static_cast<size_t>(-1);
    std::vector<size_t> first_member(nclasses, kNone);
    for (size_t i = 0; i < universe.size(); ++i)
        if (first_member[cls[i]] == kNone) first_member[cls[i]] = i;

    // Class preservation: the collapsed list must hold exactly one
    // representative per equivalence class.  A lost class silently drops
    // its weight from every coverage ratio; a duplicated one counts it
    // twice.  Both skew theta(k) and the fitted R/theta_max.
    std::vector<int> count(nclasses, 0);
    for (const StuckAtFault& f : collapsed) {
        const auto it = index.find(key(f));
        if (it == index.end()) {
            engine.report(Severity::Error, "fault-equivalence-violation",
                          "fault " + gatesim::fault_name(circuit, f) +
                          " is not in the structural fault universe",
                          {}, gatesim::fault_name(circuit, f));
            continue;
        }
        ++count[cls[it->second]];
    }
    for (size_t c = 0; c < nclasses; ++c) {
        if (count[c] == 1) continue;
        const std::string repr =
            gatesim::fault_name(circuit, universe[first_member[c]]);
        if (count[c] == 0)
            engine.report(Severity::Error, "fault-equivalence-violation",
                          "equivalence class of " + repr +
                          " has no representative in the collapsed list "
                          "(class weight lost)",
                          {}, repr);
        else
            engine.report(Severity::Error, "fault-equivalence-violation",
                          "equivalence class of " + repr + " has " +
                          std::to_string(count[c]) +
                          " representatives (class weight double-counted)",
                          {}, repr);
    }

    // Structural testability: a fault whose site cannot be observed at any
    // primary output is undetectable by any vector set, so it bounds
    // theta_max before a single vector is simulated.
    const atpg::Testability t = atpg::compute_testability(circuit);
    size_t untestable = 0;
    for (const StuckAtFault& f : collapsed) {
        const NetId site = f.is_stem() ? f.net : f.reader;
        if (site >= t.co.size() || t.co[site] < atpg::kScoapInfinite)
            continue;
        ++untestable;
        engine.report(Severity::Warning, "fault-structurally-untestable",
                      "fault " + gatesim::fault_name(circuit, f) +
                      " is statically undetectable (site unobservable at "
                      "every primary output)",
                      {}, gatesim::fault_name(circuit, f));
    }
    if (untestable > 0 && !collapsed.empty()) {
        const double bound =
            1.0 - static_cast<double>(untestable) /
                      static_cast<double>(collapsed.size());
        engine.report(Severity::Info, "fault-structurally-untestable",
                      std::to_string(untestable) + " of " +
                      std::to_string(collapsed.size()) +
                      " collapsed faults are structurally untestable; "
                      "attainable coverage is bounded at " +
                      fmt_double(100.0 * bound) + "%");
    }
}

void lint_redundant_logic(const netlist::Circuit& circuit,
                          std::span<const gatesim::StuckAtFault> collapsed,
                          DiagnosticEngine& engine,
                          const analysis::AnalysisOptions& options) {
    const analysis::AnalysisResult result =
        analysis::find_untestable(circuit, collapsed, options);
    for (const analysis::UntestableProof& proof : result.proofs)
        engine.report(Severity::Warning, "circuit-redundant-logic",
                      analysis::proof_summary(circuit, proof) +
                      "; the line is redundant logic (removable without "
                      "changing any output)",
                      {}, gatesim::fault_name(circuit, proof.fault));
    if (result.stats.proofs > 0 && !collapsed.empty())
        engine.report(Severity::Info, "circuit-redundant-logic",
                      std::to_string(result.stats.proofs) + " of " +
                      std::to_string(collapsed.size()) +
                      " collapsed faults proven untestable by static "
                      "implication analysis (" +
                      std::to_string(result.stats.constant_lines) +
                      " constant lines)");
    if (result.stop != support::StopReason::None)
        engine.report(Severity::Info, "circuit-redundant-logic",
                      "analysis interrupted (" +
                      std::string(support::stop_reason_name(result.stop)) +
                      ") after " +
                      std::to_string(result.stats.pivots_done) + " of " +
                      std::to_string(result.stats.pivots_total) +
                      " pivots; findings cover the completed prefix");
}

LintReport make_report(const DiagnosticEngine& engine) {
    return {engine.diagnostics(), engine.errors(), engine.warnings(),
            engine.infos(), engine.suppressed()};
}

bool lint_enabled_from_env() {
    // Recognized off-spellings disable the gate; garbage ("fale", "-1")
    // throws support::EnvError instead of silently leaving the gate on.
    return support::env_flag("DLPROJ_LINT", true);
}

}  // namespace dlp::lint
