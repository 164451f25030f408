// Batched experiment campaigns: runs a declarative grid of experiments
// (spec.h) on top of the staged flow::ExperimentRunner, backed by the
// content-addressed artifact cache (store.h).
//
// Per cell, the runner looks up the fitted-cell artifact first (a hit
// skips the cell entirely), then seeds the experiment runner with any
// cached stage artifacts (collapsed fault list, test set, simulation
// data) before running the remaining stages.  Every freshly computed
// stage artifact is committed to the store as soon as its stage
// completes, so a cancelled campaign resumes from the last committed
// artifact and — because every stage is deterministic in its inputs —
// reproduces the uninterrupted report byte for byte.
//
// Cells execute sequentially in row-major grid order (shard-filtered);
// each cell reuses the shared thread pool internally via
// ExperimentOptions::parallel.  Telemetry: campaign.run / campaign.cell
// spans, campaign.cell.cache_hit / cache_miss counters (plus the
// campaign.store.* counters from store.h).
#pragma once

#include "campaign/artifacts.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "flow/experiment.h"

namespace dlp::campaign {

struct CampaignOptions {
    /// Artifact-cache root; "" disables caching (DLPROJ_CACHE is applied
    /// by the CLI, not here, so library users stay explicit).
    std::string cache_dir;
    bool use_cache = true;  ///< false: ignore cache_dir entirely
    /// Shard `index/count` of the grid this run executes (default: all).
    Shard shard;
    /// Campaign-level bounds: the cancel token / deadline are checked at
    /// cell boundaries and forwarded into every cell's stages.  A stopped
    /// campaign commits nothing for the interrupted cell.
    support::RunBudget budget;
    /// Worker count within each cell (both fault simulators + ATPG).
    parallel::ParallelOptions parallel;
    /// Forwarded as each cell's ExperimentRunner progress observer; the
    /// campaign additionally reports ("cell", i, selected) before and
    /// ("campaign", i+1, selected) after each cell.
    flow::ProgressFn progress;
};

struct CampaignStats {
    std::size_t cells_total = 0;     ///< full grid size
    std::size_t cells_selected = 0;  ///< after shard filtering
    std::size_t cells_completed = 0;
    std::size_t cell_hits = 0;   ///< whole-cell artifact hits
    std::size_t cell_misses = 0;
    std::size_t tests_hits = 0;  ///< test-set artifact hits (cell misses)
    std::size_t tests_misses = 0;
    std::size_t sim_hits = 0;
    std::size_t sim_misses = 0;
    std::size_t faults_hits = 0;
    std::size_t faults_misses = 0;
    std::size_t analysis_hits = 0;  ///< untestability-analysis artifacts
    std::size_t analysis_misses = 0;
    std::size_t store_corrupt = 0;  ///< objects rejected by hash check
    /// Why the campaign stopped early (None = ran to completion).
    support::StopReason stop = support::StopReason::None;
};

struct CampaignReport {
    std::string name;
    /// Completed cells in grid order (shard-selected).  Deterministic in
    /// the spec: cache hits, resumes and sharding never change content.
    std::vector<CellResult> cells;
    /// The optional axes the spec sweeps (swept_axes): report emitters
    /// add their columns only for these, so classic campaigns keep their
    /// exact report bytes.
    std::vector<std::size_t> swept;
    CampaignStats stats;
};

/// Executes this run's shard of the grid.  Throws std::runtime_error
/// (with the cell identity prepended) when a cell's inputs fail the
/// static-analysis gate or cannot be resolved.
CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options = {});

}  // namespace dlp::campaign
