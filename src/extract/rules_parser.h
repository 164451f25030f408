// Text format for defect statistics, mirroring the paper's description of
// `lift`: "In the fault extraction rules file, geometrical rules for fault
// extraction are given for each defect type, as well as the statistical
// defect density and size distributions".
//
//   # comments and blank lines ignored
//   unit     1e-7          # density scale (defects per lambda^2)
//   x0       2.0           # minimum spot diameter (lambda)
//   short    metal1 10.0   # extra-material density, in units
//   open     metal1 1.0    # missing-material density, in units
//   contact_open 0.5
//   pinhole  0.4
//   sizebin  2 4 0.6      # optional measured size histogram: lo hi prob
//   cluster_alpha  2      # optional negative-binomial clustering shape
//   cluster_wafer  4      # or the hierarchical form: shared wafer shape,
//   cluster_die    2      # shared die shape, and a per-region density map
//   cluster_region 0.5 1  # (fraction alpha; repeatable, fractions sum to 1)
//
// Layer names follow cell::layer_name: ndiff pdiff poly metal1 metal2.
// `sizebin` is repeatable (one line per diameter band); bin overlap and
// normalization are validated by the lint layer, not here.  Likewise
// `cluster_region` is repeatable and its fraction normalization is lint's
// job; `cluster_alpha` is mutually exclusive with the hierarchical family.
#pragma once

#include <string>

#include "extract/defect_stats.h"

namespace dlp::extract {

/// Parses rules text; throws support::ParseError ("rules:<line>: ...", a
/// std::runtime_error) on malformed input.  Unmentioned densities stay
/// zero.
DefectStatistics parse_defect_rules(const std::string& text);

/// Loads rules from a file.
DefectStatistics load_defect_rules(const std::string& path);

/// Serializes statistics back to rules text (round-trips with parse).
std::string to_rules(const DefectStatistics& stats);

}  // namespace dlp::extract
