// Tests for critical-area math, defect statistics and the fault extractor.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <random>
#include <tuple>

#include "extract/critical_area.h"
#include "extract/extractor.h"
#include "extract/monte_carlo.h"
#include "extract/rules_parser.h"
#include "layout/place_route.h"
#include "model/stats.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"

namespace dlp::extract {
namespace {

using cell::Rect;

TEST(CriticalArea, ClosedFormShortWeight) {
    // E[A] = L * x0^2 / s for s >= x0.
    EXPECT_DOUBLE_EQ(short_weight(10.0, 4.0, 2.0), 10.0 * 4.0 / 4.0);
    EXPECT_DOUBLE_EQ(short_weight(10.0, 8.0, 2.0), 5.0);
    // Below x0 the weight caps at the s = x0 value.
    EXPECT_DOUBLE_EQ(short_weight(10.0, 1.0, 2.0),
                     short_weight(10.0, 2.0, 2.0));
    EXPECT_DOUBLE_EQ(short_weight(0.0, 4.0, 2.0), 0.0);
}

TEST(CriticalArea, OpenWeightDual) {
    EXPECT_DOUBLE_EQ(open_weight(20.0, 4.0, 2.0), 20.0);
    EXPECT_GT(open_weight(20.0, 2.0, 2.0), open_weight(20.0, 4.0, 2.0));
}

TEST(CriticalArea, FacingDetection) {
    const Rect a{0, 0, 10, 3};
    // Parallel above with overlap 6, gap 4.
    const Rect b{4, 7, 14, 10};
    const auto f = facing(a, b, 12);
    ASSERT_TRUE(f.has_value());
    EXPECT_DOUBLE_EQ(f->length, 6.0);
    EXPECT_DOUBLE_EQ(f->spacing, 4.0);
    // Symmetric.
    const auto g = facing(b, a, 12);
    ASSERT_TRUE(g.has_value());
    EXPECT_DOUBLE_EQ(g->length, 6.0);

    EXPECT_FALSE(facing(a, Rect{4, 20, 14, 23}, 12));   // too far
    EXPECT_FALSE(facing(a, Rect{2, 1, 6, 2}, 12));      // overlapping
    EXPECT_FALSE(facing(a, Rect{12, 5, 20, 9}, 12));    // diagonal only
    const auto h = facing(a, Rect{13, 0, 20, 3}, 12);   // side by side
    ASSERT_TRUE(h.has_value());
    EXPECT_DOUBLE_EQ(h->spacing, 3.0);
}

// ---- the facing-pair search against an all-pairs loop ----------------------

using FacingPair = std::tuple<size_t, size_t, double, double>;

/// The reference: every pair i < j that facing() accepts, in (i, j) order.
std::vector<FacingPair> all_facing_pairs(const std::vector<Rect>& rects,
                                         std::int64_t spacing) {
    std::vector<FacingPair> out;
    for (size_t i = 0; i < rects.size(); ++i)
        for (size_t j = i + 1; j < rects.size(); ++j)
            if (const auto f = facing(rects[i], rects[j], spacing))
                out.emplace_back(i, j, f->length, f->spacing);
    return out;
}

std::vector<FacingPair> searched_facing_pairs(const std::vector<Rect>& rects,
                                              std::int64_t spacing,
                                              PairSearchStats& stats) {
    std::vector<FacingPair> out;
    facing_pairs(
        rects, spacing,
        [&](size_t i, size_t j, const Facing& f) {
            out.emplace_back(i, j, f.length, f.spacing);
        },
        stats);
    return out;
}

/// A random layer around the origin, sorted by x1.  It mixes small wires
/// on a coarse grid (equal x1), wide trunks across the whole layer, tall
/// wires across many bands, and partners placed beside an earlier shape
/// at gaps of spacing - 1, spacing and spacing + 1, touching it, or
/// overlapping it.
std::vector<Rect> random_layer(std::mt19937_64& rng, size_t n,
                               std::int64_t spacing) {
    const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    constexpr std::int64_t kLo = -300;
    constexpr std::int64_t kHi = 300;
    std::vector<Rect> out;
    while (out.size() < n) {
        const int kind = out.empty() ? 0 : static_cast<int>(pick(0, 5));
        Rect r;
        if (kind <= 1) {  // a small wire
            r.x1 = kLo + 8 * pick(0, (kHi - kLo) / 8);
            r.y1 = pick(kLo, kHi);
            r.x2 = r.x1 + pick(1, 30);
            r.y2 = r.y1 + pick(1, 30);
        } else if (kind == 2) {  // a trunk across the layer
            r.x1 = kLo + pick(0, 20);
            r.x2 = kHi - pick(0, 20);
            r.y1 = pick(kLo, kHi);
            r.y2 = r.y1 + pick(1, 6);
        } else if (kind == 3) {  // a tall wire
            r.x1 = pick(kLo, kHi);
            r.x2 = r.x1 + pick(1, 4);
            r.y1 = kLo + pick(0, 50);
            r.y2 = r.y1 + pick(200, 600);
        } else {  // beside an earlier shape
            const Rect& o = out[static_cast<size_t>(
                pick(0, static_cast<std::int64_t>(out.size()) - 1))];
            const std::int64_t gaps[] = {spacing - 1, spacing, spacing + 1,
                                         0, -pick(1, 3)};
            const std::int64_t gap = gaps[pick(0, 4)];
            const std::int64_t run = pick(1, 40);
            const std::int64_t thick = pick(1, 8);
            switch (pick(0, 3)) {
                case 0:  // above
                    r = {o.x1 + pick(-10, 10), o.y2 + gap, 0, 0};
                    r.x2 = r.x1 + run;
                    r.y2 = r.y1 + thick;
                    break;
                case 1:  // below
                    r = {o.x1 + pick(-10, 10), 0, 0, o.y1 - gap};
                    r.x2 = r.x1 + run;
                    r.y1 = r.y2 - thick;
                    break;
                case 2:  // right
                    r = {o.x2 + gap, o.y1 + pick(-10, 10), 0, 0};
                    r.x2 = r.x1 + thick;
                    r.y2 = r.y1 + run;
                    break;
                default:  // left
                    r = {0, o.y1 + pick(-10, 10), o.x1 - gap, 0};
                    r.x1 = r.x2 - thick;
                    r.y2 = r.y1 + run;
                    break;
            }
        }
        out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const Rect& a, const Rect& b) { return a.x1 < b.x1; });
    return out;
}

TEST(FacingPairs, EmptyAndSingleShapeLayers) {
    PairSearchStats stats;
    EXPECT_TRUE(searched_facing_pairs({}, 12, stats).empty());
    EXPECT_TRUE(searched_facing_pairs({Rect{-5, -5, 5, 5}}, 12, stats).empty());
    EXPECT_EQ(stats.examined, 0);
    EXPECT_EQ(stats.facing, 0);
}

TEST(FacingPairs, MatchAllPairsOnRandomLayers) {
    // Every accepted pair, in the order of the all-pairs loop, with the
    // same facing length and spacing.
    std::mt19937_64 rng(20240611);
    size_t at_spacing = 0;
    size_t total = 0;
    for (const std::int64_t spacing : {0, 1, 5, 12}) {
        for (const size_t n : {2, 3, 10, 60, 300}) {
            for (int trial = 0; trial < 8; ++trial) {
                const auto rects = random_layer(rng, n, spacing);
                const auto want = all_facing_pairs(rects, spacing);
                PairSearchStats stats;
                const auto got = searched_facing_pairs(rects, spacing, stats);
                ASSERT_EQ(got, want) << "spacing " << spacing << ", " << n
                                     << " shapes, trial " << trial;
                EXPECT_EQ(stats.facing, static_cast<std::int64_t>(got.size()));
                EXPECT_GE(stats.examined, stats.facing);
                total += want.size();
                for (const auto& pair : want)
                    if (std::get<3>(pair) == static_cast<double>(spacing))
                        ++at_spacing;
            }
        }
    }
    EXPECT_GT(total, 1000u);
    EXPECT_GT(at_spacing, 100u) << "too few pairs at exactly the spacing";
}

TEST(FacingPairs, TrunksAndTallWiresExamineFewPairs) {
    // Rows of short wires under chip-wide trunks: the x window alone would
    // test every trunk against every later shape, the bands only against
    // the shapes near it in y.
    std::vector<Rect> rects;
    for (std::int64_t row = 0; row < 20; ++row) {
        const std::int64_t y = -2000 + 100 * row;
        rects.push_back({-5000, y + 40, 5000, y + 44});  // trunk
        for (std::int64_t x = -5000; x < 5000; x += 50)
            rects.push_back({x, y, x + 20, y + 10});
        rects.push_back({-4990 + 37 * row, -2000, -4987 + 37 * row, 0});
    }
    std::sort(rects.begin(), rects.end(),
              [](const Rect& a, const Rect& b) { return a.x1 < b.x1; });
    PairSearchStats stats;
    const auto got = searched_facing_pairs(rects, 12, stats);
    ASSERT_EQ(got, all_facing_pairs(rects, 12));
    EXPECT_GT(stats.facing, 0);
    const auto n = static_cast<std::int64_t>(rects.size());
    EXPECT_LT(stats.examined, 4 * n) << "examined " << stats.examined;
}

TEST(DefectStats, ProfilesAreConsistent) {
    const auto bridging = DefectStatistics::cmos_bridging_dominant();
    EXPECT_GT(bridging.shorts(cell::Layer::Metal1),
              bridging.opens(cell::Layer::Metal1));
    const auto open = DefectStatistics::open_dominant();
    EXPECT_LT(open.shorts(cell::Layer::Metal1),
              open.opens(cell::Layer::Metal1));
}

class ExtractorFixture : public ::testing::Test {
protected:
    static const layout::ChipLayout& chip() {
        static const layout::ChipLayout c = layout::place_and_route(
            netlist::techmap(netlist::build_c432()));
        return c;
    }
    static const ExtractionResult& extraction() {
        static const ExtractionResult r = extract_faults(
            chip(), DefectStatistics::cmos_bridging_dominant());
        return r;
    }
};

TEST_F(ExtractorFixture, ProducesAllMechanisms) {
    const auto& r = extraction();
    ASSERT_FALSE(r.faults.empty());
    size_t bridges = 0;
    size_t topens = 0;
    size_t gfloats = 0;
    size_t nopens = 0;
    for (const auto& f : r.faults) {
        switch (f.kind) {
            case ExtractedFault::Kind::Bridge: ++bridges; break;
            case ExtractedFault::Kind::TransistorOpen: ++topens; break;
            case ExtractedFault::Kind::GateFloat: ++gfloats; break;
            case ExtractedFault::Kind::NetOpen: ++nopens; break;
            default: break;
        }
    }
    EXPECT_GT(bridges, 100u);
    EXPECT_GT(topens, 100u);
    EXPECT_GT(gfloats, 100u);
    EXPECT_GT(nopens, 100u);
}

TEST_F(ExtractorFixture, WeightsPositiveAndSumToTotal) {
    const auto& r = extraction();
    double sum = 0.0;
    for (const auto& f : r.faults) {
        EXPECT_GT(f.weight, 0.0);
        sum += f.weight;
    }
    // total_weight also counts class-accounted weight; with min_weight = 0
    // everything lands in the fault list.
    EXPECT_NEAR(sum, r.total_weight, 1e-9 * r.total_weight);
    double by_class = 0.0;
    for (const auto& [cls, w] : r.weight_by_class) by_class += w;
    EXPECT_NEAR(by_class, r.total_weight, 1e-9 * r.total_weight);
    EXPECT_GT(r.yield(), 0.0);
    EXPECT_LT(r.yield(), 1.0);
}

TEST_F(ExtractorFixture, BridgingDominatesWithCmosProfile) {
    const auto& r = extraction();
    double bridge_w = 0.0;
    double open_w = 0.0;
    for (const auto& [cls, w] : r.weight_by_class) {
        if (cls.rfind("bridge.", 0) == 0) bridge_w += w;
        if (cls.rfind("open.", 0) == 0) open_w += w;
    }
    EXPECT_GT(bridge_w, open_w)
        << "paper's positive-photoresist CMOS premise: bridges dominate";
}

TEST_F(ExtractorFixture, WeightHistogramIsWidelyDispersed) {
    // Fig. 3's headline: weights span decades and cannot be treated as
    // equal (contradicting Huisman's assumption).
    const auto ws = extraction().weights();
    double lo = 1e300;
    double hi = 0.0;
    for (double w : ws) {
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    EXPECT_GT(hi / lo, 100.0) << "expected >= 2 decades of dispersion";
}

TEST_F(ExtractorFixture, BridgeEndpointsDiffer) {
    for (const auto& f : extraction().faults) {
        if (f.kind != ExtractedFault::Kind::Bridge) continue;
        EXPECT_FALSE(f.a == f.b);
    }
}

TEST_F(ExtractorFixture, NetOpenSinksValid) {
    const auto& c = chip();
    for (const auto& f : extraction().faults) {
        if (f.kind != ExtractedFault::Kind::NetOpen) continue;
        ASSERT_NE(f.net, netlist::kNoNet);
        ASSERT_LT(f.net, c.circuit.gate_count());
        if (f.sink >= 0)
            EXPECT_LT(static_cast<size_t>(f.sink), c.sinks[f.net].size());
    }
}

TEST(Extractor, MinWeightFilters) {
    const auto chip = layout::place_and_route(
        netlist::techmap(netlist::build_c17()));
    const auto stats = DefectStatistics::cmos_bridging_dominant();
    const auto all = extract_faults(chip, stats);
    ExtractOptions opt;
    // Set the threshold at the median weight: about half must survive.
    auto ws = all.weights();
    std::sort(ws.begin(), ws.end());
    opt.min_weight = ws[ws.size() / 2];
    const auto filtered = extract_faults(chip, stats, opt);
    EXPECT_LT(filtered.faults.size(), all.faults.size());
    EXPECT_NEAR(static_cast<double>(filtered.faults.size()),
                static_cast<double>(all.faults.size()) / 2.0,
                static_cast<double>(all.faults.size()) / 4.0);
    // Yield bookkeeping unchanged by filtering.
    EXPECT_NEAR(filtered.total_weight, all.total_weight, 1e-12);
}

TEST_F(ExtractorFixture, MultiNodeBridgesExtracted) {
    // Defects spanning three adjacent wires produce three-net bridges;
    // they must exist, carry less weight than pairwise bridges (bigger
    // defects are rarer), and have three distinct endpoints.
    const auto& r = extraction();
    size_t triples = 0;
    double w2 = 0.0;
    double w3 = 0.0;
    for (const auto& f : r.faults) {
        if (f.kind != ExtractedFault::Kind::Bridge) continue;
        if (f.c.is_none()) {
            w2 += f.weight;
        } else {
            ++triples;
            w3 += f.weight;
            EXPECT_FALSE(f.a == f.b);
            EXPECT_FALSE(f.b == f.c);
            EXPECT_FALSE(f.a == f.c);
        }
    }
    EXPECT_GT(triples, 100u);
    EXPECT_GT(w3, 0.0);
    EXPECT_LT(w3, w2);
    bool has_class = false;
    for (const auto& [cls, w] : r.weight_by_class)
        if (cls.rfind("bridge3.", 0) == 0 && w > 0) has_class = true;
    EXPECT_TRUE(has_class);
}

TEST(Extractor, MultiNodeBridgesCanBeDisabled) {
    const auto chip = layout::place_and_route(
        netlist::techmap(netlist::build_c17()));
    ExtractOptions opt;
    opt.multi_node_bridges = false;
    const auto r = extract_faults(
        chip, DefectStatistics::cmos_bridging_dominant(), opt);
    for (const auto& f : r.faults)
        if (f.kind == ExtractedFault::Kind::Bridge)
            EXPECT_TRUE(f.c.is_none());
    for (const auto& [cls, w] : r.weight_by_class)
        EXPECT_NE(cls.rfind("bridge3.", 0), 0u) << cls;
}

TEST(Extractor, OpenDominantProfileShiftsWeight) {
    const auto chip = layout::place_and_route(
        netlist::techmap(netlist::build_c17()));
    const auto r = extract_faults(chip, DefectStatistics::open_dominant());
    double bridge_w = 0.0;
    double open_w = 0.0;
    for (const auto& [cls, w] : r.weight_by_class) {
        if (cls.rfind("bridge.", 0) == 0) bridge_w += w;
        if (cls.rfind("open.", 0) == 0) open_w += w;
    }
    EXPECT_GT(open_w, bridge_w);
}

/// FNV-1a over every field of every extracted fault (the weight by its bit
/// pattern), then the bits of the total and of each class weight.
std::string extraction_digest(const ExtractionResult& r) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::int64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    const auto mix_text = [&](const std::string& s) {
        mix(static_cast<std::int64_t>(s.size()));
        for (char ch : s) mix(static_cast<unsigned char>(ch));
    };
    const auto mix_bits = [&](double d) {
        mix(static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(d)));
    };
    mix(static_cast<std::int64_t>(r.faults.size()));
    for (const ExtractedFault& f : r.faults) {
        mix(static_cast<std::int64_t>(f.kind));
        for (const cell::NetRef& n : {f.a, f.b, f.c}) {
            mix(n.instance);
            mix(n.index);
        }
        mix(static_cast<std::int64_t>(f.transistors.size()));
        for (const auto& [inst, t] : f.transistors) {
            mix(inst);
            mix(t);
        }
        mix(f.net);
        mix(f.sink);
        mix(f.po);
        mix_bits(f.weight);
        mix_text(f.description);
    }
    mix_bits(r.total_weight);
    mix(static_cast<std::int64_t>(r.weight_by_class.size()));
    for (const auto& [cls, w] : r.weight_by_class) {
        mix_text(cls);
        mix_bits(w);
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

std::string extraction_digest(const netlist::Circuit& c,
                              const DefectStatistics& stats,
                              const ExtractOptions& options = {}) {
    const auto chip = layout::place_and_route(netlist::techmap(c));
    return extraction_digest(extract_faults(chip, stats, options));
}

// Pinned from the x-window bridge sweep, before the y-band search replaced
// it.  The search must leave every fault, weight bit, description and
// class total where it was: a moved digest means an accumulation now
// happens in another order, or a pair is found or lost.
TEST(ExtractorDigest, C432) {
    EXPECT_EQ(extraction_digest(netlist::build_c432(),
                                DefectStatistics::cmos_bridging_dominant()),
              "d572845325476735");
    // The other profile, pairwise bridges only.
    ExtractOptions pairs_only;
    pairs_only.multi_node_bridges = false;
    EXPECT_EQ(extraction_digest(netlist::build_c432(),
                                DefectStatistics::open_dominant(), pairs_only),
              "ff84863718330376");
}

TEST(ExtractorDigest, Random500) {
    EXPECT_EQ(extraction_digest(netlist::build_random_circuit(32, 500, 7),
                                DefectStatistics::cmos_bridging_dominant()),
              "6416bac15ebc8f07");
}

TEST(ExtractorDigest, Synth2k) {
    const auto c = netlist::load_bench_file(std::string(DLPROJ_DATA_DIR) +
                                            "/synth_2k.bench");
    EXPECT_EQ(extraction_digest(c, DefectStatistics::cmos_bridging_dominant()),
              "f79e26aca1b69a0a");
}

TEST(MonteCarlo, ValidatesClosedFormWeights) {
    // Drop 400k random defects per layer and compare the estimated critical
    // weights with the extractor's closed-form integrals.  Shorts must
    // agree tightly; opens run a little lower in MC because overlapping
    // same-net shapes (jogs over pads) are integrated separately by the
    // closed form but can only break once physically.
    const auto chip = layout::place_and_route(
        netlist::techmap(netlist::build_c17()));
    const auto stats = DefectStatistics::cmos_bridging_dominant();
    const auto closed = extract_faults(chip, stats);
    MonteCarloOptions opt;
    opt.samples_per_layer = 400000;
    const auto mc = estimate_critical_weights(chip, stats, opt);

    double cf_short = 0.0;
    double cf_open = 0.0;
    for (const auto& [cls, w] : closed.weight_by_class) {
        if (cls.rfind("bridge", 0) == 0 && cls != "bridge.poly") cf_short += w;
        if (cls == "bridge.poly") cf_short += w - /*pinhole part*/ 0.0;
        if (cls.rfind("open.", 0) == 0 && cls != "open.cut") cf_open += w;
    }
    // Pinholes are area faults, not adjacency shorts; exclude them from the
    // comparison by subtracting their density contribution.
    // (They are booked under bridge.poly; compute them directly.)
    double pinhole = 0.0;
    for (const auto& gr : layout::flatten_gate_regions(chip))
        pinhole += stats.pinhole_density * static_cast<double>(gr.rect.area());
    cf_short -= pinhole;

    const double short_ratio = mc.total_short_weight() / cf_short;
    EXPECT_GT(short_ratio, 0.85) << mc.total_short_weight() << " vs "
                                 << cf_short;
    EXPECT_LT(short_ratio, 1.15);

    const double open_ratio = mc.total_open_weight() / cf_open;
    EXPECT_GT(open_ratio, 0.55);
    EXPECT_LT(open_ratio, 1.15);
}

TEST(MonteCarlo, BridgeRankingMatchesExtractor) {
    // The heaviest MC bridge pairs must also be heavy in the closed form.
    const auto chip = layout::place_and_route(
        netlist::techmap(netlist::build_c17()));
    const auto stats = DefectStatistics::cmos_bridging_dominant();
    const auto closed = extract_faults(chip, stats);
    MonteCarloOptions opt;
    opt.samples_per_layer = 200000;
    const auto mc = estimate_critical_weights(chip, stats, opt);
    ASSERT_FALSE(mc.bridges.empty());

    std::map<std::pair<cell::NetRef, cell::NetRef>, double> closed_pairs;
    for (const auto& f : closed.faults)
        if (f.kind == ExtractedFault::Kind::Bridge && f.c.is_none())
            closed_pairs[std::minmax(f.a, f.b)] += f.weight;

    // Take MC's top-5 pairs; each must exist in the closed form with a
    // weight within an order of magnitude.
    std::vector<std::pair<double, std::pair<cell::NetRef, cell::NetRef>>> top;
    for (const auto& [nets, w] : mc.bridges) top.push_back({w, nets});
    std::sort(top.rbegin(), top.rend());
    int checked = 0;
    for (const auto& [w, nets] : top) {
        if (checked >= 5) break;
        const auto it = closed_pairs.find(nets);
        if (it == closed_pairs.end()) continue;  // may be a 3-net set
        ++checked;
        EXPECT_GT(it->second, w / 10.0);
        EXPECT_LT(it->second, w * 10.0);
    }
    EXPECT_GE(checked, 3);
}

TEST(MonteCarlo, DeterministicInSeed) {
    const auto chip = layout::place_and_route(
        netlist::techmap(netlist::build_c17()));
    const auto stats = DefectStatistics::uniform();
    MonteCarloOptions opt;
    opt.samples_per_layer = 5000;
    const auto a = estimate_critical_weights(chip, stats, opt);
    const auto b = estimate_critical_weights(chip, stats, opt);
    EXPECT_EQ(a.total_short_weight(), b.total_short_weight());
    opt.seed = 2;
    const auto c = estimate_critical_weights(chip, stats, opt);
    EXPECT_NE(a.total_short_weight(), c.total_short_weight());
}

TEST(RulesParser, RoundTripsDefaultProfiles) {
    for (const auto& stats : {DefectStatistics::cmos_bridging_dominant(),
                              DefectStatistics::open_dominant(),
                              DefectStatistics::uniform()}) {
        const DefectStatistics reparsed = parse_defect_rules(to_rules(stats));
        EXPECT_DOUBLE_EQ(reparsed.x0, stats.x0);
        for (int li = 0; li < cell::kLayerCount; ++li) {
            EXPECT_DOUBLE_EQ(reparsed.short_density[li],
                             stats.short_density[li]);
            EXPECT_DOUBLE_EQ(reparsed.open_density[li],
                             stats.open_density[li]);
        }
        EXPECT_DOUBLE_EQ(reparsed.contact_open_density,
                         stats.contact_open_density);
        EXPECT_DOUBLE_EQ(reparsed.pinhole_density, stats.pinhole_density);
    }
}

TEST(RulesParser, ParsesUnitsAndComments) {
    const char* text = R"(
# comment
unit 1e-3
x0 3.5
short metal1 4.0   # trailing comment
open  poly 2.0
pinhole 0.25
)";
    const DefectStatistics s = parse_defect_rules(text);
    EXPECT_DOUBLE_EQ(s.x0, 3.5);
    EXPECT_DOUBLE_EQ(s.shorts(cell::Layer::Metal1), 4.0e-3);
    EXPECT_DOUBLE_EQ(s.opens(cell::Layer::Poly), 2.0e-3);
    EXPECT_DOUBLE_EQ(s.pinhole_density, 0.25e-3);
    EXPECT_DOUBLE_EQ(s.shorts(cell::Layer::Metal2), 0.0);
}

TEST(RulesParser, Errors) {
    EXPECT_THROW(parse_defect_rules("frob 1.0"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("short unknownium 1.0"),
                 std::runtime_error);
    EXPECT_THROW(parse_defect_rules("short metal1"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("x0 -1"), std::runtime_error);
    EXPECT_THROW(parse_defect_rules("short metal1 1.0 extra"),
                 std::runtime_error);
    EXPECT_THROW(load_defect_rules("/nonexistent/file.rules"),
                 std::runtime_error);
}

TEST(RulesParser, ShippedRulesFileMatchesBuiltinProfile) {
    DefectStatistics from_file;
    bool found = false;
    for (const char* path :
         {"data/cmos_bridging.rules", "../data/cmos_bridging.rules",
          "../../data/cmos_bridging.rules"}) {
        try {
            from_file = load_defect_rules(path);
            found = true;
            break;
        } catch (const std::runtime_error&) {
        }
    }
    if (!found) GTEST_SKIP() << "rules file not found from this cwd";
    const auto builtin = DefectStatistics::cmos_bridging_dominant();
    for (int li = 0; li < cell::kLayerCount; ++li) {
        EXPECT_NEAR(from_file.short_density[li], builtin.short_density[li],
                    1e-12);
        EXPECT_NEAR(from_file.open_density[li], builtin.open_density[li],
                    1e-12);
    }
    EXPECT_NEAR(from_file.pinhole_density, builtin.pinhole_density, 1e-12);
}

// Property sweep: extraction invariants across circuit families.
class ExtractionProperty
    : public ::testing::TestWithParam<std::function<netlist::Circuit()>> {};

TEST_P(ExtractionProperty, InvariantsHold) {
    const auto mapped = netlist::techmap(GetParam()());
    const auto chip = layout::place_and_route(mapped);
    const auto r =
        extract_faults(chip, DefectStatistics::cmos_bridging_dominant());

    ASSERT_FALSE(r.faults.empty());
    double sum = 0.0;
    for (const auto& f : r.faults) {
        ASSERT_GT(f.weight, 0.0);
        sum += f.weight;
        switch (f.kind) {
            case ExtractedFault::Kind::Bridge:
                EXPECT_FALSE(f.a == f.b);
                EXPECT_FALSE(f.a.is_power() && f.b.is_power() &&
                             f.c.is_none());
                break;
            case ExtractedFault::Kind::TransistorOpen:
            case ExtractedFault::Kind::GateFloat:
                ASSERT_FALSE(f.transistors.empty());
                for (const auto& [inst, t] : f.transistors) {
                    ASSERT_GE(inst, 0);
                    ASSERT_LT(static_cast<size_t>(inst), chip.cells.size());
                    ASSERT_LT(static_cast<size_t>(t),
                              chip.cells[static_cast<size_t>(inst)]
                                  .cell->transistors.size());
                }
                break;
            case ExtractedFault::Kind::NetOpen:
                ASSERT_LT(f.net, mapped.gate_count());
                break;
            case ExtractedFault::Kind::PoFloat:
                ASSERT_GE(f.po, 0);
                ASSERT_LT(static_cast<size_t>(f.po),
                          mapped.outputs().size());
                break;
            case ExtractedFault::Kind::Gross:
                break;
        }
    }
    EXPECT_NEAR(sum, r.total_weight, 1e-9 * r.total_weight);
    // More layout area => more total weight: sanity on the absolute scale.
    EXPECT_GT(r.total_weight, 0.0);
    EXPECT_LT(r.total_weight, 10.0) << "density units off?";
}

INSTANTIATE_TEST_SUITE_P(
    Families, ExtractionProperty,
    ::testing::Values([] { return netlist::build_c17(); },
                      [] { return netlist::build_ripple_adder(6); },
                      [] { return netlist::build_decoder(3); },
                      [] {
                          return netlist::build_random_circuit(12, 90, 17);
                      }));

}  // namespace
}  // namespace dlp::extract
