// Aggregated campaign reports: a JSON document with the full coverage
// curves per cell, a one-row-per-cell CSV, and a separate cache/run
// accounting document.
//
// The JSON/CSV reports contain only quantities that are deterministic in
// the spec (identity, workload facts, curves, fits) — never cache or
// timing accounting — so a warm re-run, a resumed run, and the merge of a
// sharded fan-out all produce byte-identical report content.  Cache
// accounting goes in stats_json() instead.
#pragma once

#include <string>

#include "campaign/runner.h"

namespace dlp::campaign {

/// Deterministic JSON report: campaign name + one object per completed
/// cell (identity, workload facts, final coverages, eq (11) fit with the
/// residual-DL floor in ppm, each swept axis's column group, and the full
/// coverage curves).
std::string report_json(const CampaignReport& report);

/// Deterministic CSV, one row per cell:
/// index,circuit,rules,seed,atpg,mapped_gates,stuck_faults,
/// realistic_faults,vectors,yield,t_final,theta_final,gamma_final,
/// theta_iddq_final,fit_r,fit_theta_max,residual_ppm,interruption
/// plus each swept axis's identity and quality columns (spec.h).  Rows
/// are in grid order, so sharded runs merge with a sort on column 1.
std::string report_csv(const CampaignReport& report,
                       bool header = true);

/// Cache and execution accounting (hits/misses per artifact kind,
/// corruption count, stop reason).  Deliberately separate from the
/// science reports; wall-clock timing is added by the CLI, not here.
std::string stats_json(const CampaignStats& stats);

}  // namespace dlp::campaign
