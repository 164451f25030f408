// Critical-area arithmetic for spot defects.
//
// For a defect of diameter x and two parallel wire edges of facing length L
// at spacing s, the short critical area is A(x) = L * (x - s) for x > s
// (the band of centers that touch both wires).  With the size density
// p(x) = 2*x0^2/x^3 (x >= x0), the expected weighted critical area is
//
//   E[A] = integral_s^inf L*(x-s) * 2*x0^2/x^3 dx = L * x0^2 / s     (s>=x0)
//
// and for s < x0 the integral from x0 gives L * (x0^2/s - ... ) which we
// conservatively cap at the s = x0 value.  Opens are the dual: a missing-
// material spot spanning wire width w over run length L gives L * x0^2 / w.
//
// A fault's weight is then w_j = D * E[A], the average number of inducing
// defects (paper eq. 4 discussion), so weights add and Y = exp(-sum w).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "cell/geom.h"

namespace dlp::extract {

/// Expected short weight (before density) for facing length L at spacing s.
double short_weight(double facing_length, double spacing, double x0);

/// Expected open weight (before density) for run length L at width w.
double open_weight(double run_length, double width, double x0);

/// Facing relation between two non-overlapping rectangles on one layer.
struct Facing {
    double length = 0.0;   ///< overlap of the facing edges
    double spacing = 0.0;  ///< gap between them
};

/// Returns the parallel-run facing of two rectangles, or nullopt if they
/// overlap/touch or face only diagonally.  `max_spacing` bounds the search
/// (defects beyond contribute negligibly).
std::optional<Facing> facing(const cell::Rect& a, const cell::Rect& b,
                             std::int64_t max_spacing);

/// Work done by one facing_pairs() search.
struct PairSearchStats {
    std::int64_t examined = 0;  ///< candidate pairs tested with facing()
    std::int64_t facing = 0;    ///< of those, pairs facing() accepted
};

/// Calls visit(i, j, f) for every pair i < j of `rects` that
/// facing(rects[i], rects[j], max_spacing) accepts, in ascending (i, j)
/// order: the pairs and the order of an all-pairs loop.  `rects` must be
/// valid and sorted by x1.  Candidates come from horizontal bands, so a
/// shape is tested only against the shapes within `max_spacing` of it in
/// y and after it in the x window; see "Extraction order" in
/// docs/ARCHITECTURE.md.  Adds its work to `stats`.
void facing_pairs(
    std::span<const cell::Rect> rects, std::int64_t max_spacing,
    const std::function<void(std::size_t, std::size_t, const Facing&)>& visit,
    PairSearchStats& stats);

}  // namespace dlp::extract
