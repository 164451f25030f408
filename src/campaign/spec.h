// Declarative experiment campaigns: a grid of experiment cells
// (circuits × rule decks × seeds × ATPG configs) described by a small
// INI/TOML-style spec file.
//
//   # 12-cell comparison grid
//   [campaign]
//   name = demo
//   target_yield = 0.75
//   max_vectors = 0            # 0 = unlimited
//
//   [grid]
//   circuits = c17, adder3, parity4
//   rules = bridging, uniform
//   seeds = 1, 2
//   atpg = quick
//   ndetect = 1, 2, 4, 8       # optional n-detection axis (default: 1)
//   analysis = off, on         # optional untestability-analysis axis
//   defect_stats = poisson, negbin:2   # optional clustering-backend axis
//
//   [atpg.quick]               # one section per named ATPG variant
//   max_random = 256
//   backtrack_limit = 1024
//   ndetect_mix = mixed        # top-up sources when ndetect > 1
//
// Grid axes are names: circuits resolve to the programmatic builders in
// netlist/builders.h (c17, c432, adder<N>, parity<N>, mux<N>, decoder<N>,
// alu<N>, hamming<N>) or to a .bench file path; rule decks resolve to the
// DefectStatistics presets (bridging, open, uniform) or to a .rules file
// path.  Cells enumerate in row-major grid order — circuit outermost, then
// rules, seeds, ATPG variant, n-detection target, analysis setting,
// defect-statistics backend — which is also the shard-partitioning and
// report order.  The newest axis is
// always innermost, so a spec without one enumerates exactly as before it
// existed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/generate.h"
#include "extract/defect_stats.h"
#include "netlist/circuit.h"

namespace dlp::campaign {

/// A named ATPG configuration; the grid seed overrides `options.seed`.
struct AtpgVariant {
    std::string name = "default";
    atpg::TestGenOptions options;
};

struct CampaignSpec {
    std::string name = "campaign";
    double target_yield = 0.75;  ///< flow::ExperimentOptions::target_yield
    bool weighted = true;        ///< false: unweighted ablation grid
    long long max_vectors = 0;   ///< per-cell vector budget (0 = unlimited)
    bool lint = true;            ///< per-cell static-analysis gate

    // Grid axes (each must be non-empty; seeds/atpg/ndetect default to one
    // entry).
    std::vector<std::string> circuits;
    std::vector<std::string> rules;
    std::vector<std::uint64_t> seeds{1};
    std::vector<AtpgVariant> atpg{AtpgVariant{}};
    /// n-detection targets (atpg::TestGenOptions::ndetect per cell).  The
    /// default {1} is the classic single-detection grid; its cells hash,
    /// serialize, and report byte-identically to a spec that predates the
    /// axis.
    std::vector<int> ndetect{1};
    /// Static untestability-analysis settings (0 = off, 1 = on; the flow's
    /// analyze() stage per cell).  The default {0} is the classic grid;
    /// its cells hash, serialize, and report byte-identically to a spec
    /// that predates the axis.
    std::vector<int> analysis{0};
    /// Defect-statistics backends (model::parse_defect_stats descriptors:
    /// poisson, negbin:A, hier:wafer=A;die=A;region=F@A;...).  The default
    /// {poisson} is the classic grid; its cells hash, serialize, and
    /// report byte-identically to a spec that predates the axis, and
    /// non-Poisson cells share every pre-fit artifact (faults, tests,
    /// sim) with their Poisson siblings — only the cell artifact differs.
    std::vector<std::string> defect_stats{"poisson"};

    std::size_t cell_count() const {
        return circuits.size() * rules.size() * seeds.size() * atpg.size() *
               ndetect.size() * analysis.size() * defect_stats.size();
    }
    /// True when the grid actually sweeps n (any target != 1): reports add
    /// the per-n quality columns only for such campaigns.
    bool has_ndetect_axis() const {
        for (int n : ndetect)
            if (n != 1) return true;
        return false;
    }
    /// True when any cell runs the untestability analysis: reports add the
    /// corrected-vs-raw columns only for such campaigns.
    bool has_analysis_axis() const {
        for (int a : analysis)
            if (a != 0) return true;
        return false;
    }
    /// True when any cell uses a non-Poisson defect-statistics backend:
    /// reports add the clustered columns only for such campaigns.
    bool has_defect_stats_axis() const {
        for (const std::string& d : defect_stats)
            if (d != "poisson") return true;
        return false;
    }
};

/// One grid point, identified by its row-major index.
struct Cell {
    std::size_t index = 0;
    std::string circuit;
    std::string rules;
    std::uint64_t seed = 1;
    std::string atpg;  ///< variant name
    int ndetect = 1;   ///< n-detection target
    bool analysis = false;  ///< untestability-analysis setting
    std::string defect_stats = "poisson";  ///< backend descriptor
};

/// The cell at row-major grid `index` (< spec.cell_count()).
Cell cell_at(const CampaignSpec& spec, std::size_t index);

/// The ATPG variant named by `cell.atpg`; throws if absent.
const AtpgVariant& atpg_variant(const CampaignSpec& spec,
                                const std::string& name);

/// Parses a spec document; throws std::runtime_error with a line-numbered
/// message on malformed input, unknown keys, or an empty grid axis.
CampaignSpec parse_campaign_spec(const std::string& text);

/// Replaces the [grid] list axis `key` (ndetect, analysis or defect_stats)
/// of `spec` with the comma-separated `list`, validated and canonicalized
/// exactly as the spec file's [grid] line is.  Throws std::runtime_error
/// (without a line number) on a bad item or an empty list.
void set_grid_axis(CampaignSpec& spec, const std::string& key,
                   const std::string& list);

/// Loads a spec file from disk.
CampaignSpec load_campaign_spec(const std::string& path);

/// Resolves a grid circuit name: a builders.h name (see file comment) or a
/// path ending in ".bench".  Throws std::runtime_error on unknown names.
netlist::Circuit resolve_circuit(const std::string& name);

/// Resolves a rule-deck name: bridging (alias cmos_bridging_dominant),
/// open (open_dominant), uniform, or a path ending in ".rules".
extract::DefectStatistics resolve_rules(const std::string& name);

/// Deterministic shard partition `index/count` for CI fan-out.
struct Shard {
    int index = 0;
    int count = 1;
};

/// Parses "i/n" (0 <= i < n); throws std::runtime_error otherwise.
Shard parse_shard(const std::string& text);

/// The cell indices shard `shard` owns out of `total` cells, ascending.
/// Cells are dealt round-robin (cell c goes to shard c mod count), so for
/// every count the shards are disjoint, cover the grid, and stay balanced
/// to within one cell.
std::vector<std::size_t> shard_cells(std::size_t total, const Shard& shard);

}  // namespace dlp::campaign
