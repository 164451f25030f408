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
//   ndetect = 1, 2, 4, 8       # optional axes (below); each defaults
//   analysis = off, on         # to its classic item (1, off, poisson)
//   defect_stats = poisson, negbin:2
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
// path.  Every [grid] list must be non-empty, and seeds must be
// non-negative.  Cells enumerate in row-major grid order — circuit
// outermost, then rules, seeds, ATPG variant, then the optional axes in
// table order — which is also the shard-partitioning and report order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/generate.h"
#include "campaign/artifacts.h"
#include "extract/defect_stats.h"
#include "flow/experiment.h"
#include "netlist/circuit.h"

namespace dlp::campaign {

/// A named ATPG configuration; the grid seed overrides `options.seed`.
struct AtpgVariant {
    std::string name = "default";
    atpg::TestGenOptions options;
};

// --- the optional grid axes, declared once --------------------------------
// Each axis (ndetect, analysis, defect_stats) is one entry of the table
// in axes.cpp; the spec parser, cell enumeration, cache keys, report
// emitters and the CLI all loop over it.  An all-classic cell hashes,
// serializes and reports byte-identically to a grid without the axis, and
// reports show an axis's columns only when some cell leaves its classic
// item.  The newest axis is innermost, so older grids keep their order.

/// One report column: a member of the axis's JSON group object and a CSV
/// column.  Values print as "%.17g", exact for integers below 2^53.
struct AxisColumn {
    const char* json;
    const char* csv;
    double (*value)(const CellResult&);
};

struct GridAxis {
    const char* key;      ///< [grid] key; also the report identity column
    const char* flag;     ///< dlproj_campaign flag overriding the list
    const char* classic;  ///< default item; adds no key or report bytes
    /// The key that gets the axis lines: the test-set key (and through it
    /// the sim and cell keys) or the fitted-cell key alone.
    enum class Stage { Tests, Cell } stage;
    enum class Json { Number, Bool, String } json;  ///< Bool: "on" is true
    const char* group;  ///< JSON name of the column group
    /// Validates one list item and returns its canonical spelling, so
    /// equal settings share one cache key; throws std::runtime_error.
    std::string (*canonical)(const std::string& item);
    /// Sets the flow option of a canonical item.
    void (*apply)(const std::string& item, flow::ExperimentOptions& opt);
    /// Key lines of the applied option; "" when the option leaves the
    /// artifact as a classic cell computes it.
    std::string (*key_lines)(const flow::ExperimentOptions& opt);
    std::string (*item_of)(const CellResult& c);  ///< identity as recorded
    std::vector<AxisColumn> columns;
    /// Optional curve reported right after t_curve.
    const char* curve = nullptr;
    const flow::CoverageCurve& (*curve_of)(const CellResult&) = nullptr;
};

/// The table, in enumeration (innermost last) and report order.
const std::vector<GridAxis>& grid_axes();

/// One single-item list per axis: its classic item.
std::vector<std::vector<std::string>> classic_axes();

struct CampaignSpec {
    std::string name = "campaign";
    double target_yield = 0.75;  ///< flow::ExperimentOptions::target_yield
    bool weighted = true;        ///< false: unweighted ablation grid
    long long max_vectors = 0;   ///< per-cell vector budget (0 = unlimited)
    bool lint = true;            ///< per-cell static-analysis gate

    // Grid axes (each must be non-empty; seeds/atpg default to one entry).
    std::vector<std::string> circuits;
    std::vector<std::string> rules;
    std::vector<std::uint64_t> seeds{1};
    std::vector<AtpgVariant> atpg{AtpgVariant{}};
    /// The optional axes: one list of canonical items per grid_axes()
    /// entry, each defaulting to its classic item (see set_grid_axis).
    std::vector<std::vector<std::string>> axes = classic_axes();

    std::size_t cell_count() const;
};

/// One grid point, identified by its row-major index.
struct Cell {
    std::size_t index = 0;
    std::string circuit;
    std::string rules;
    std::uint64_t seed = 1;
    std::string atpg;               ///< variant name
    std::vector<std::string> axes;  ///< item per grid_axes() entry
};

/// The cell at row-major grid `index` (< spec.cell_count()).
Cell cell_at(const CampaignSpec& spec, std::size_t index);

/// The ATPG variant named by `cell.atpg`; throws if absent.
const AtpgVariant& atpg_variant(const CampaignSpec& spec,
                                const std::string& name);

/// Parses a spec document; throws std::runtime_error with a line-numbered
/// message on malformed input, unknown keys, an empty [grid] list or a
/// negative seed, and without one when circuits or rules are missing.
CampaignSpec parse_campaign_spec(const std::string& text);

/// Replaces the optional [grid] axis `key` of `spec` with the
/// comma-separated `list`, validated and canonicalized exactly as the
/// spec file's [grid] line is.  Throws std::runtime_error (without a line
/// number) on an unknown key, a bad item or an empty list.
void set_grid_axis(CampaignSpec& spec, const std::string& key,
                   const std::string& list);

/// Indices into grid_axes() of the axes `spec` sweeps (some item is not
/// classic); reports and --list add columns only for these.
std::vector<std::size_t> swept_axes(const CampaignSpec& spec);

/// The spec's checked boolean parser: the whole string must be one of
/// true/false/on/off/1/0.  Throws std::runtime_error without a location.
bool parse_bool(const std::string& v);

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
