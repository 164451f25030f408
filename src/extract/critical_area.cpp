#include "extract/critical_area.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace dlp::extract {

double short_weight(double facing_length, double spacing, double x0) {
    if (facing_length <= 0.0) return 0.0;
    const double s = std::max(spacing, x0);  // cap below the minimum size
    return facing_length * x0 * x0 / s;
}

double open_weight(double run_length, double width, double x0) {
    if (run_length <= 0.0) return 0.0;
    const double w = std::max(width, x0);
    return run_length * x0 * x0 / w;
}

std::optional<Facing> facing(const cell::Rect& a, const cell::Rect& b,
                             std::int64_t max_spacing) {
    const std::int64_t x_overlap =
        std::min(a.x2, b.x2) - std::max(a.x1, b.x1);
    const std::int64_t y_overlap =
        std::min(a.y2, b.y2) - std::max(a.y1, b.y1);
    if (x_overlap > 0 && y_overlap > 0) return std::nullopt;  // intersecting

    if (x_overlap > 0) {
        // Vertically separated, horizontally facing run.
        const std::int64_t gap = std::max(a.y1, b.y1) - std::min(a.y2, b.y2);
        if (gap <= 0 || gap > max_spacing) return std::nullopt;
        return Facing{static_cast<double>(x_overlap),
                      static_cast<double>(gap)};
    }
    if (y_overlap > 0) {
        const std::int64_t gap = std::max(a.x1, b.x1) - std::min(a.x2, b.x2);
        if (gap <= 0 || gap > max_spacing) return std::nullopt;
        return Facing{static_cast<double>(y_overlap),
                      static_cast<double>(gap)};
    }
    return std::nullopt;  // diagonal only
}

void facing_pairs(
    std::span<const cell::Rect> rects, std::int64_t max_spacing,
    const std::function<void(std::size_t, std::size_t, const Facing&)>& visit,
    PairSearchStats& stats) {
    const std::size_t n = rects.size();
    if (n < 2) return;
    // facing() accepts only pairs whose y-ranges, and whose x-ranges, lie
    // at most `reach` apart.
    const std::int64_t reach = std::max<std::int64_t>(max_spacing, 0);

    // Bands as tall as the mean shape (at least the reach) put a shape in
    // about two bands; no more bands than shapes bounds the index at 3n.
    std::int64_t y0 = rects[0].y1;
    std::int64_t y_top = rects[0].y2;
    double span_sum = 0.0;
    for (const cell::Rect& r : rects) {
        y0 = std::min(y0, r.y1);
        y_top = std::max(y_top, r.y2);
        span_sum += static_cast<double>(r.y2 - r.y1);
    }
    const std::int64_t height = std::max(
        {reach, static_cast<std::int64_t>(
                    std::ceil(span_sum / static_cast<double>(n))),
         (y_top - y0) / static_cast<std::int64_t>(n) + 1});
    const std::size_t bands =
        static_cast<std::size_t>((y_top - y0) / height) + 1;
    const auto band = [&](std::int64_t y) {
        if (y <= y0) return std::size_t{0};
        return std::min(static_cast<std::size_t>((y - y0) / height),
                        bands - 1);
    };

    // Each band lists the shapes crossing it in ascending index, so also
    // in ascending x1.
    std::vector<std::uint32_t> start(bands + 1, 0);
    for (const cell::Rect& r : rects)
        for (std::size_t b = band(r.y1); b <= band(r.y2); ++b)
            ++start[b + 1];
    for (std::size_t b = 0; b < bands; ++b) start[b + 1] += start[b];
    std::vector<std::uint32_t> members(start[bands]);
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t b = band(rects[j].y1); b <= band(rects[j].y2);
             ++b)
            members[cursor[b]++] = static_cast<std::uint32_t>(j);
    // From here on cursor[b] is the first member of band b above the
    // current shape.
    std::copy(start.begin(), start.end() - 1, cursor.begin());

    std::vector<std::uint32_t> candidates;
    for (std::size_t i = 0; i < n; ++i) {
        const cell::Rect& a = rects[i];
        const std::int64_t x_end = a.x2 + reach;
        const std::int64_t y_lo = a.y1 - reach;
        const std::int64_t y_hi = a.y2 + reach;
        const std::size_t first = band(y_lo);
        const std::size_t last = band(y_hi);
        candidates.clear();
        for (std::size_t b = first; b <= last; ++b) {
            std::uint32_t& c = cursor[b];
            while (c < start[b + 1] && members[c] <= i) ++c;
            for (std::uint32_t m = c; m < start[b + 1]; ++m) {
                const cell::Rect& r = rects[members[m]];
                if (r.x1 > x_end) break;
                // Take each shape from the lowest band it shares with the
                // query, and only if its y-range is within reach.
                if (std::max(band(r.y1), first) != b) continue;
                if (r.y1 > y_hi || r.y2 < y_lo) continue;
                candidates.push_back(members[m]);
            }
        }
        if (last > first) std::sort(candidates.begin(), candidates.end());
        stats.examined += static_cast<std::int64_t>(candidates.size());
        for (const std::uint32_t j : candidates) {
            const auto f = facing(a, rects[j], max_spacing);
            if (!f) continue;
            ++stats.facing;
            visit(i, j, *f);
        }
    }
}

}  // namespace dlp::extract
