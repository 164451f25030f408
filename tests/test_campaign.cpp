// Tests for the campaign subsystem: spec parsing, the grid/shard algebra,
// the content-addressed artifact store, and the end-to-end cache
// guarantees (hit/miss accounting, cross-cell artifact reuse,
// cancel-then-resume byte-identity, corruption recovery).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/artifacts.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "service/json.h"

namespace dlp::campaign {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test scratch directory under the gtest temp dir.
std::string scratch_dir(const std::string& tag) {
    const std::string path = testing::TempDir() + "dlproj_campaign_" + tag;
    fs::remove_all(path);
    return path;
}

/// Index of the optional axis `key` in grid_axes().
std::size_t axis_index(const std::string& key) {
    for (std::size_t a = 0; a < grid_axes().size(); ++a)
        if (key == grid_axes()[a].key) return a;
    ADD_FAILURE() << "no grid axis " << key;
    return 0;
}

/// The cell's item on the optional axis `key`.
std::string item(const Cell& cell, const char* key) {
    return cell.axes.at(axis_index(key));
}

/// True when `swept` (swept_axes or CampaignReport::swept) has axis `key`.
bool sweeps(const std::vector<std::size_t>& swept, const char* key) {
    return std::find(swept.begin(), swept.end(), axis_index(key)) !=
           swept.end();
}

const char* kSmallSpec =
    "[campaign]\n"
    "name = unit\n"
    "target_yield = 0.8\n"
    "[grid]\n"
    "circuits = c17, parity4\n"
    "rules = bridging, uniform\n"
    "seeds = 1\n";

// --- spec parsing -------------------------------------------------------

TEST(CampaignSpec, ParsesSectionsAndGrid) {
    const CampaignSpec s = parse_campaign_spec(
        "# comment\n"
        "[campaign]\n"
        "name = demo\n"
        "target_yield = 0.6\n"
        "max_vectors = 32\n"
        "weighted = off\n"
        "lint = false\n"
        "[grid]\n"
        "circuits = c17, adder3\n"
        "rules = bridging, uniform, open\n"
        "seeds = 1, 2, 3\n");
    EXPECT_EQ(s.name, "demo");
    EXPECT_DOUBLE_EQ(s.target_yield, 0.6);
    EXPECT_EQ(s.max_vectors, 32);
    EXPECT_FALSE(s.weighted);
    EXPECT_FALSE(s.lint);
    EXPECT_EQ(s.cell_count(), 2u * 3u * 3u);
    // Row-major: circuit outermost, then rules, then seeds.
    EXPECT_EQ(cell_at(s, 0).circuit, "c17");
    EXPECT_EQ(cell_at(s, 0).rules, "bridging");
    EXPECT_EQ(cell_at(s, 0).seed, 1u);
    EXPECT_EQ(cell_at(s, 2).seed, 3u);
    EXPECT_EQ(cell_at(s, 3).rules, "uniform");
    EXPECT_EQ(cell_at(s, 9).circuit, "adder3");
    EXPECT_EQ(cell_at(s, 17).atpg, "default");
}

TEST(CampaignSpec, AtpgVariantsSelectableFromGrid) {
    const CampaignSpec s = parse_campaign_spec(
        "[grid]\n"
        "circuits = c17\n"
        "rules = uniform\n"
        "atpg = default, fast\n"
        "[atpg.fast]\n"
        "random_block = 8\n"
        "max_random = 64\n");
    ASSERT_EQ(s.atpg.size(), 2u);
    EXPECT_EQ(s.atpg[0].name, "default");
    EXPECT_EQ(s.atpg[1].name, "fast");
    EXPECT_EQ(atpg_variant(s, "fast").options.random_block, 8);
    EXPECT_EQ(atpg_variant(s, "fast").options.max_random, 64);
    EXPECT_EQ(s.cell_count(), 2u);
    EXPECT_EQ(cell_at(s, 1).atpg, "fast");
}

TEST(CampaignSpec, RejectsMalformedInput) {
    EXPECT_THROW(parse_campaign_spec("[nope]\n"), std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[grid]\ncircuits = c17\n"),
                 std::runtime_error);  // no rules
    EXPECT_THROW(parse_campaign_spec("[campaign]\nbogus = 1\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("key = outside\n"), std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[campaign]\nno equals sign\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[grid]\nseeds = x\n"),
                 std::runtime_error);
    EXPECT_THROW(
        parse_campaign_spec("[grid]\ncircuits=c17\nrules=uniform\n"
                            "atpg = undefined_variant\n"),
        std::runtime_error);
    // Every [grid] list goes through one list parser: an empty list or a
    // negative seed fails with its line number instead of falling back to
    // a default or wrapping to a huge seed.
    for (const char* line :
         {"seeds =", "seeds = ,", "atpg =", "circuits =", "rules =",
          "ndetect =", "analysis =", "defect_stats =", "seeds = -1",
          "seeds = 1, -2"}) {
        SCOPED_TRACE(line);
        try {
            parse_campaign_spec("[grid]\ncircuits = c17\nrules = uniform\n" +
                                std::string(line) + "\n");
            ADD_FAILURE() << "accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind("campaign spec:4: ", 0), 0u)
                << e.what();
        }
    }
}

TEST(CampaignSpec, ResolvesCircuitsAndRules) {
    EXPECT_GT(resolve_circuit("c17").gate_count(), 0u);
    EXPECT_GT(resolve_circuit("adder3").gate_count(), 0u);
    EXPECT_GT(resolve_circuit("parity4").gate_count(), 0u);
    EXPECT_THROW(resolve_circuit("frobnicator9"), std::runtime_error);
    (void)resolve_rules("bridging");
    (void)resolve_rules("open");
    (void)resolve_rules("uniform");
    EXPECT_THROW(resolve_rules("nonsense"), std::runtime_error);
}

// --- shard algebra ------------------------------------------------------

TEST(CampaignShard, ParseAcceptsAndRejects) {
    EXPECT_EQ(parse_shard("0/2").index, 0);
    EXPECT_EQ(parse_shard("0/2").count, 2);
    EXPECT_EQ(parse_shard("3/4").index, 3);
    EXPECT_THROW(parse_shard("2"), std::runtime_error);
    EXPECT_THROW(parse_shard("2/2"), std::runtime_error);   // out of range
    EXPECT_THROW(parse_shard("-1/2"), std::runtime_error);
    EXPECT_THROW(parse_shard("0/0"), std::runtime_error);
    EXPECT_THROW(parse_shard("x/y"), std::runtime_error);
    EXPECT_THROW(parse_shard("1x/2"), std::runtime_error);  // trailing junk
    EXPECT_THROW(parse_shard("0/2y"), std::runtime_error);
    EXPECT_THROW(parse_shard("0/4294967298"), std::runtime_error);
}

TEST(CampaignShard, PartitionIsDisjointCoveringAndBalanced) {
    // For every grid size and every shard count, the shards partition
    // [0, total) exactly, with sizes differing by at most one.
    for (std::size_t total : {0u, 1u, 2u, 5u, 12u, 13u, 30u})
        for (int n = 1; n <= 8; ++n) {
            std::set<std::size_t> seen;
            std::size_t min_size = total + 1, max_size = 0;
            for (int i = 0; i < n; ++i) {
                const auto cells = shard_cells(total, Shard{i, n});
                min_size = std::min(min_size, cells.size());
                max_size = std::max(max_size, cells.size());
                for (const std::size_t c : cells) {
                    EXPECT_LT(c, total);
                    EXPECT_TRUE(seen.insert(c).second)
                        << "cell " << c << " in two shards (n=" << n << ")";
                }
            }
            EXPECT_EQ(seen.size(), total) << "n=" << n;
            if (total > 0) EXPECT_LE(max_size - min_size, 1u) << "n=" << n;
        }
}

// --- artifact store -----------------------------------------------------

TEST(ArtifactStore, PutGetRoundTrip) {
    ArtifactStore store(scratch_dir("store_rt"));
    EXPECT_TRUE(store.enabled());
    EXPECT_FALSE(store.get("tests", "key-a").has_value());
    EXPECT_EQ(store.misses(), 1u);
    store.put("tests", "key-a", "payload-a");
    const auto back = store.get("tests", "key-a");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, "payload-a");
    EXPECT_EQ(store.hits(), 1u);
    // Overwrite is allowed and atomic.
    store.put("tests", "key-a", "payload-b");
    EXPECT_EQ(store.get("tests", "key-a").value(), "payload-b");
    // Same key, different kind = a different object.
    EXPECT_FALSE(store.get("sim", "key-a").has_value());
}

TEST(ArtifactStore, DisabledStoreNeverHits) {
    ArtifactStore store("");
    EXPECT_FALSE(store.enabled());
    store.put("tests", "k", "v");  // no-op, must not throw
    EXPECT_FALSE(store.get("tests", "k").has_value());
    EXPECT_EQ(store.writes(), 0u);
}

TEST(ArtifactStore, CorruptObjectIsDetectedNotServed) {
    ArtifactStore store(scratch_dir("store_corrupt"));
    store.put("cell", "the-key", "precious payload bytes");
    const std::string path = store.object_path("cell", "the-key");
    // Flip the last payload byte on disk.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary | std::ios::ate);
        ASSERT_TRUE(f.is_open());
        const auto size = static_cast<long long>(f.tellg());
        f.seekp(size - 1);
        f.put('X');
    }
    EXPECT_FALSE(store.get("cell", "the-key").has_value());
    EXPECT_EQ(store.corrupt(), 1u);
    // A rewrite repairs the entry.
    store.put("cell", "the-key", "precious payload bytes");
    EXPECT_EQ(store.get("cell", "the-key").value(),
              "precious payload bytes");
}

TEST(ArtifactStore, TruncatedObjectIsAMiss) {
    ArtifactStore store(scratch_dir("store_trunc"));
    store.put("cell", "k", "0123456789");
    fs::resize_file(store.object_path("cell", "k"), 5);
    EXPECT_FALSE(store.get("cell", "k").has_value());
}

// --- end-to-end campaign cache guarantees -------------------------------

CampaignOptions cached_options(const std::string& cache_dir) {
    CampaignOptions opt;
    opt.cache_dir = cache_dir;
    return opt;
}

TEST(CampaignCache, ColdThenWarmAccounting) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const std::string cache = scratch_dir("accounting");

    const CampaignReport cold = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(cold.stats.cells_total, 4u);
    EXPECT_EQ(cold.stats.cells_completed, 4u);
    EXPECT_EQ(cold.stats.cell_hits, 0u);
    EXPECT_EQ(cold.stats.cell_misses, 4u);
    ASSERT_EQ(cold.cells.size(), 4u);
    for (const CellResult& c : cold.cells) {
        EXPECT_GT(c.stuck_faults, 0u);
        EXPECT_GT(c.vector_count, 0u);
        EXPECT_GT(c.t_curve.final(), 0.0);
        EXPECT_TRUE(c.interruption.empty());
    }

    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(warm.stats.cell_hits, 4u);
    EXPECT_EQ(warm.stats.cell_misses, 0u);
    EXPECT_EQ(warm.stats.store_corrupt, 0u);
    // The science reports are byte-identical; only accounting differs.
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));
}

// --- artifact formats ---------------------------------------------------

/// Asserts `a` and `b` hold the same bits in every serialized field.
void expect_same_bits(double a, double b, const char* what) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << what;
}

void expect_same_curve(const flow::CoverageCurve& a,
                       const flow::CoverageCurve& b, const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        expect_same_bits(a[i], b[i], what);
}

void expect_same_cell(const CellResult& a, const CellResult& b) {
    EXPECT_EQ(a.circuit, b.circuit);
    EXPECT_EQ(a.rules, b.rules);
    EXPECT_EQ(a.atpg, b.atpg);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.mapped_gates, b.mapped_gates);
    EXPECT_EQ(a.stuck_faults, b.stuck_faults);
    EXPECT_EQ(a.realistic_faults, b.realistic_faults);
    EXPECT_EQ(a.transistors, b.transistors);
    EXPECT_EQ(a.vector_count, b.vector_count);
    EXPECT_EQ(a.random_vectors, b.random_vectors);
    expect_same_bits(a.yield, b.yield, "yield");
    expect_same_bits(a.fit_r, b.fit_r, "fit_r");
    expect_same_bits(a.fit_theta_max, b.fit_theta_max, "fit_theta_max");
    expect_same_bits(a.fit_rms, b.fit_rms, "fit_rms");
    EXPECT_EQ(a.ndetect, b.ndetect);
    EXPECT_EQ(a.ndetect_min, b.ndetect_min);
    expect_same_bits(a.ndetect_mean, b.ndetect_mean, "ndetect_mean");
    expect_same_bits(a.worst_case_coverage, b.worst_case_coverage,
                     "worst_case_coverage");
    expect_same_bits(a.avg_case_coverage, b.avg_case_coverage,
                     "avg_case_coverage");
    EXPECT_EQ(a.analysis, b.analysis);
    EXPECT_EQ(a.untestable_faults, b.untestable_faults);
    expect_same_bits(a.fit_raw_r, b.fit_raw_r, "fit_raw_r");
    expect_same_bits(a.fit_raw_theta_max, b.fit_raw_theta_max,
                     "fit_raw_theta_max");
    EXPECT_EQ(a.defect_stats, b.defect_stats);
    expect_same_bits(a.stat_yield, b.stat_yield, "stat_yield");
    expect_same_bits(a.fit_c_r, b.fit_c_r, "fit_c_r");
    expect_same_bits(a.fit_c_theta_max, b.fit_c_theta_max, "fit_c_theta_max");
    expect_same_bits(a.fit_c_alpha, b.fit_c_alpha, "fit_c_alpha");
    expect_same_bits(a.fit_c_rms, b.fit_c_rms, "fit_c_rms");
    EXPECT_EQ(a.interruption, b.interruption);
    expect_same_curve(a.t_curve, b.t_curve, "t_curve");
    expect_same_curve(a.t_curve_raw, b.t_curve_raw, "t_curve_raw");
    expect_same_curve(a.theta_curve, b.theta_curve, "theta_curve");
    expect_same_curve(a.gamma_curve, b.gamma_curve, "gamma_curve");
    expect_same_curve(a.theta_iddq_curve, b.theta_iddq_curve,
                      "theta_iddq_curve");
}

/// One cell per grid-axis field group: classic, n-detect, analysis, and
/// clustered with analysis.
std::vector<CellResult> cell_table() {
    CellResult classic;
    classic.circuit = "c17";
    classic.rules = "bridging";
    classic.atpg = "default";
    classic.seed = 7;
    classic.mapped_gates = 6;
    classic.stuck_faults = 22;
    classic.realistic_faults = 226;
    classic.transistors = 24;
    classic.vector_count = 12;
    classic.random_vectors = 8;
    classic.yield = 0.75;
    classic.fit_r = 0.9470546668076807;
    classic.fit_theta_max = 1.0000000000000857;
    classic.fit_rms = 0.0625;
    classic.ndetect_min = 0;
    classic.ndetect_mean = 0.875;
    classic.worst_case_coverage = 0.875;
    classic.avg_case_coverage = 0.875;
    classic.stat_yield = 0.75;
    classic.t_curve = flow::CoverageCurve({0.5, 0.875});
    classic.theta_curve = flow::CoverageCurve({0.25, 0.955084125050091});
    classic.gamma_curve = flow::CoverageCurve({0.125, 0.5});
    classic.theta_iddq_curve = flow::CoverageCurve({0.375, 1.0});

    CellResult ndetect = classic;
    ndetect.ndetect = 4;
    ndetect.ndetect_min = 2;
    ndetect.ndetect_mean = 3.25;
    ndetect.worst_case_coverage = 0.5;
    ndetect.avg_case_coverage = 0.8125;
    ndetect.interruption = "switch-sim:VectorBudget";

    CellResult analysis = classic;
    analysis.analysis = true;
    analysis.untestable_faults = 3;
    analysis.fit_raw_r = 0.25;
    analysis.fit_raw_theta_max = 1.5;
    analysis.t_curve_raw = flow::CoverageCurve({0.375, 0.75});

    CellResult clustered = analysis;
    clustered.defect_stats = "negbin:2";
    clustered.stat_yield = 0.8375;
    clustered.fit_c_r = 0.25;
    clustered.fit_c_theta_max = 1.5;
    clustered.fit_c_alpha = 2.125;
    clustered.fit_c_rms = 0.0625;
    return {classic, ndetect, analysis, clustered};
}

TEST(CampaignArtifacts, CellRoundTripIsBitIdenticalForEveryAxis) {
    // One layout writes every field: each axis's field group comes back
    // bit for bit, and the classic cell's trivial groups are stored, not
    // rebuilt on read.
    for (const CellResult& c : cell_table()) {
        SCOPED_TRACE(c.defect_stats + " ndetect " +
                     std::to_string(c.ndetect) + " analysis " +
                     std::to_string(c.analysis));
        const std::string text = serialize_cell(c);
        const CellResult back = parse_cell(text);
        expect_same_cell(back, c);
        EXPECT_EQ(serialize_cell(back), text);
    }
}

TEST(CampaignArtifacts, EarlierCellLayoutsAreACacheMiss) {
    // Any magic line but the current one is rejected, so a cache written
    // by an earlier layout misses once and is recomputed.
    const std::string text = serialize_cell(cell_table().front());
    const std::string body = text.substr(text.find('\n'));
    for (const char* magic : {"dlproj-cell 1", "dlproj-cell 2",
                              "dlproj-cell 3", "dlproj-cell 4",
                              "dlproj-cell 6", "dlproj-cell"})
        EXPECT_THROW(parse_cell(magic + body), std::runtime_error) << magic;
    EXPECT_THROW(parse_cell(""), std::runtime_error);
}

TEST(CampaignArtifacts, TestSetRoundTripIsBitIdentical) {
    flow::ExperimentRunner::TestSet t;
    t.stuck = {{2, netlist::kNoNet, -1, false}, {3, 4, 0, true}};
    t.tests.vectors = {{true, false, true}, {false, false, true}};
    t.tests.random_count = 1;
    t.tests.deterministic_count = 1;
    t.tests.detected = 2;
    t.tests.first_detected_at = {1, 2};
    t.tests.status = {atpg::FaultStatus::Detected,
                      atpg::FaultStatus::Detected};
    t.tests.ndetect = 2;
    t.tests.detection_counts = {2, 1};
    t.tests.nth_detected_at = {2, -1};
    t.tests.topup_random_count = 1;
    t.tests.topup_weighted_count = 2;
    t.tests.topup_deterministic_count = 3;
    t.t_curve = flow::CoverageCurve({0.5, 1.0});
    t.t_curve_raw = flow::CoverageCurve({0.375, 0.75});
    const std::string text = serialize_tests(t);
    const auto back = parse_tests(text);
    EXPECT_EQ(back.stuck, t.stuck);
    EXPECT_EQ(back.tests.vectors, t.tests.vectors);
    EXPECT_EQ(back.tests.random_count, 1);
    EXPECT_EQ(back.tests.deterministic_count, 1);
    EXPECT_EQ(back.tests.detected, 2u);
    EXPECT_EQ(back.tests.first_detected_at, t.tests.first_detected_at);
    EXPECT_EQ(back.tests.status, t.tests.status);
    EXPECT_EQ(back.tests.ndetect, 2);
    EXPECT_EQ(back.tests.detection_counts, t.tests.detection_counts);
    EXPECT_EQ(back.tests.nth_detected_at, t.tests.nth_detected_at);
    EXPECT_EQ(back.tests.topup_random_count, 1);
    EXPECT_EQ(back.tests.topup_weighted_count, 2);
    EXPECT_EQ(back.tests.topup_deterministic_count, 3);
    expect_same_curve(back.t_curve, t.t_curve, "t_curve");
    expect_same_curve(back.t_curve_raw, t.t_curve_raw, "t_curve_raw");
    EXPECT_EQ(serialize_tests(back), text);
    EXPECT_THROW(parse_tests("dlproj-tests 3" + text.substr(text.find('\n'))),
                 std::runtime_error);
}

TEST(CampaignNDetect, AxisGridSharesClassicCacheByteIdentically) {
    // The n=1 cells of an ndetect-axis grid carry the same artifact keys
    // and bytes as a classic campaign's, so a cache warmed without the
    // axis serves them — and the axis report must not depend on whether
    // its n=1 cells were hits or fresh.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {"c17"};
    spec.rules = {"bridging"};
    const std::string cache = scratch_dir("ndetect_axis");
    const CampaignReport classic = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(classic.stats.cell_misses, 1u);
    EXPECT_FALSE(sweeps(classic.swept, "ndetect"));

    set_grid_axis(spec, "ndetect", "1, 2");
    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_TRUE(sweeps(warm.swept, "ndetect"));
    EXPECT_EQ(warm.stats.cell_hits, 1u);    // the n=1 cell
    EXPECT_EQ(warm.stats.cell_misses, 1u);  // the n=2 cell
    const CampaignReport cold =
        run_campaign(spec, cached_options(scratch_dir("ndetect_axis_cold")));
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));
    ASSERT_EQ(warm.cells.size(), 2u);
    EXPECT_EQ(warm.cells[0].ndetect, 1);
    EXPECT_EQ(warm.cells[1].ndetect, 2);
    // c17 is fully testable: at n=1 the derived quality figures collapse
    // to the (complete) coverage.
    EXPECT_EQ(warm.cells[0].worst_case_coverage, 1.0);
    EXPECT_EQ(warm.cells[0].ndetect_min, 1);
    EXPECT_GE(warm.cells[1].avg_case_coverage,
              warm.cells[1].worst_case_coverage);
}

TEST(CampaignReport, JsonEscapesControlCharactersAndRoundTrips) {
    // Spec names and rule-deck paths are free text: a tab or a raw control
    // byte must come out as a JSON escape, so the strict protocol parser
    // (which the service applies to the same body) accepts the report.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.name = "a\tb";
    spec.circuits = {"c17"};
    spec.rules = {"uniform"};
    CampaignReport report = run_campaign(spec, CampaignOptions{});
    ASSERT_EQ(report.cells.size(), 1u);
    const std::string rules = "decks/\x01odd\n.rules";
    report.cells[0].rules = rules;
    const service::Json doc = service::parse_json(report_json(report));
    EXPECT_EQ(doc.get("campaign")->as_string(), "a\tb");
    const service::Json& cell = doc.get("cells")->items().at(0);
    EXPECT_EQ(cell.get("rules")->as_string(), rules);
    EXPECT_EQ(cell.get("circuit")->as_string(), "c17");
}

TEST(CampaignCache, TestsArtifactSharedAcrossRuleDecks) {
    // Two cells differ only in the rule deck: the collapsed faults and the
    // ATPG test set depend on (circuit, seed, atpg) but not on the rules,
    // so the second cell's cold run reuses the first cell's artifacts.
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const CampaignReport cold =
        run_campaign(spec, cached_options(scratch_dir("xcell")));
    EXPECT_EQ(cold.stats.cell_misses, 4u);
    // 2 circuits x 2 rule decks: one tests miss + one tests hit each.
    EXPECT_EQ(cold.stats.tests_misses, 2u);
    EXPECT_EQ(cold.stats.tests_hits, 2u);
    EXPECT_EQ(cold.stats.sim_hits, 0u);  // sim depends on the rules
}

TEST(CampaignCache, UncachedRunsMatchCachedContent) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    CampaignOptions uncached;  // no cache_dir at all
    const CampaignReport a = run_campaign(spec, uncached);
    const CampaignReport b =
        run_campaign(spec, cached_options(scratch_dir("nocache_cmp")));
    EXPECT_EQ(a.stats.cell_hits + a.stats.cell_misses, 0u);
    EXPECT_EQ(report_json(a), report_json(b));
}

TEST(CampaignSpec, EngineKeyIsAnUnknownKey) {
    // Fault-sim engines are bit-identical and production always grades
    // with the levelized engine, so a spec cannot pick one: `engine =` is
    // rejected like any other unknown [campaign] key.
    try {
        parse_campaign_spec("[campaign]\n"
                            "engine = levelized\n"
                            "[grid]\n"
                            "circuits = c17\n"
                            "rules = uniform\n");
        FAIL() << "expected the engine key to be rejected";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown [campaign] key 'engine'"),
                  std::string::npos)
            << what;
    }
}

TEST(CampaignCache, ShardedRunsMergeToUnshardedReport) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const std::string cache = scratch_dir("shardmerge");
    const CampaignReport full = run_campaign(spec, cached_options(cache));

    std::vector<CellResult> merged;
    const std::string cache2 = scratch_dir("shardmerge2");
    for (int i = 0; i < 2; ++i) {
        CampaignOptions opt = cached_options(cache2);
        opt.shard = Shard{i, 2};
        const CampaignReport part = run_campaign(spec, opt);
        EXPECT_EQ(part.stats.cells_selected, 2u);
        merged.insert(merged.end(), part.cells.begin(), part.cells.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const CellResult& a, const CellResult& b) {
                  return a.index < b.index;
              });
    CampaignReport assembled;
    assembled.name = full.name;
    assembled.cells = std::move(merged);
    EXPECT_EQ(report_json(assembled), report_json(full));
    EXPECT_EQ(report_csv(assembled), report_csv(full));
}

TEST(CampaignCache, CancelThenResumeIsByteIdentical) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);

    // Reference: one uninterrupted run in its own cache.
    const CampaignReport reference =
        run_campaign(spec, cached_options(scratch_dir("resume_ref")));

    // Interrupted run: request cancellation (through a copy of the shared
    // token, as a watchdog thread would) once two cells have completed.
    // The campaign checks the budget at cell boundaries, completes nothing
    // further, and commits nothing for uncompleted work.
    const std::string cache = scratch_dir("resume");
    CampaignOptions opt = cached_options(cache);
    support::CancelToken killswitch = opt.budget.cancel;  // shared flag
    opt.progress = [&killswitch](std::string_view stage, std::size_t done,
                                 std::size_t) {
        if (stage == "campaign" && done == 2) killswitch.request();
    };
    const CampaignReport interrupted = run_campaign(spec, opt);
    EXPECT_EQ(interrupted.stats.stop, support::StopReason::Cancelled);
    EXPECT_EQ(interrupted.cells.size(), 2u);
    EXPECT_EQ(interrupted.stats.cells_completed, 2u);

    // Resume: same cache, fresh budget.  The first two cells are whole-cell
    // hits; the rest compute now.  The report must match the uninterrupted
    // reference byte for byte.
    const CampaignReport resumed = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(resumed.stats.cell_hits, 2u);
    EXPECT_EQ(resumed.stats.cell_misses, 2u);
    EXPECT_EQ(resumed.cells.size(), 4u);
    EXPECT_EQ(report_json(resumed), report_json(reference));
    EXPECT_EQ(report_csv(resumed), report_csv(reference));
}

TEST(CampaignCache, CorruptedEntriesAreRecomputedAndRepaired) {
    const CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    const std::string cache = scratch_dir("repair");
    const CampaignReport cold = run_campaign(spec, cached_options(cache));

    // Flip the last byte of every committed object.
    std::size_t damaged = 0;
    for (const auto& entry : fs::recursive_directory_iterator(cache)) {
        if (!entry.is_regular_file()) continue;
        std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                         std::ios::binary | std::ios::ate);
        ASSERT_TRUE(f.is_open());
        const auto size = static_cast<long long>(f.tellg());
        f.seekg(size - 1);
        const char last = static_cast<char>(f.get());
        f.seekp(size - 1);
        f.put(last == 'Z' ? 'z' : 'Z');
        ++damaged;
    }
    ASSERT_GT(damaged, 0u);

    // The warm run detects every corrupted object, recomputes, and matches
    // the cold report byte for byte.
    const CampaignReport repair = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(repair.stats.cell_hits, 0u);
    EXPECT_GT(repair.stats.store_corrupt, 0u);
    EXPECT_EQ(report_json(repair), report_json(cold));

    // ...and the repaired cache serves the next run entirely from hits.
    const CampaignReport healed = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(healed.stats.cell_hits, 4u);
    EXPECT_EQ(healed.stats.store_corrupt, 0u);
    EXPECT_EQ(report_json(healed), report_json(cold));
}

TEST(CampaignLint, BadCircuitFailsTheGateWithCellIdentity) {
    // The PR 4 static-analysis gate runs per cell; a defective circuit
    // aborts the campaign with the offending cell named in the error.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {std::string(DLPROJ_DATA_DIR) + "/bad_dangling.bench"};
    try {
        run_campaign(spec, {});
        FAIL() << "expected the lint gate to reject the circuit";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("bad_dangling"),
                  std::string::npos)
            << e.what();
    }
}

// --- the analysis axis --------------------------------------------------

/// Writes the absorption fixture (y = a OR (a AND b), so y == a and the
/// AND gate is redundant logic) to a scratch .bench the grid can resolve.
std::string write_redundant_bench(const std::string& tag) {
    const std::string dir = scratch_dir("bench_" + tag);
    fs::create_directories(dir);
    const std::string path = dir + "/absorption.bench";
    std::ofstream out(path);
    out << "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
           "n1 = AND(a, b)\ny = OR(a, n1)\n";
    return path;
}

TEST(CampaignAnalysis, SpecAxisParsesAndEnumeratesInnermost) {
    const CampaignSpec s = parse_campaign_spec(
        "[grid]\n"
        "circuits = c17\n"
        "rules = bridging, uniform\n"
        "ndetect = 1, 2\n"
        "analysis = off, on\n");
    EXPECT_TRUE(sweeps(swept_axes(s), "analysis"));
    EXPECT_EQ(s.cell_count(), 1u * 2u * 2u * 2u);
    // The analysis setting is the innermost axis: it toggles fastest, so
    // classic specs (default {off}) enumerate exactly as before.
    EXPECT_EQ(item(cell_at(s, 0), "analysis"), "off");
    EXPECT_EQ(item(cell_at(s, 1), "analysis"), "on");
    EXPECT_EQ(item(cell_at(s, 1), "ndetect"), "1");
    EXPECT_EQ(item(cell_at(s, 2), "ndetect"), "2");
    EXPECT_EQ(cell_at(s, 3).rules, "bridging");
    EXPECT_EQ(cell_at(s, 4).rules, "uniform");

    EXPECT_FALSE(
        sweeps(swept_axes(parse_campaign_spec(kSmallSpec)), "analysis"));
    EXPECT_THROW(parse_campaign_spec("[grid]\ncircuits = c17\n"
                                     "rules = uniform\nanalysis = maybe\n"),
                 std::runtime_error);
    EXPECT_THROW(parse_campaign_spec("[grid]\ncircuits = c17\n"
                                     "rules = uniform\nanalysis =\n"),
                 std::runtime_error);
}

TEST(CampaignAnalysis, AnalysisArtifactRoundTrip) {
    flow::ExperimentRunner::AnalysisData a;
    a.stuck = {{2, netlist::kNoNet, -1, false},
               {3, 4, 0, true},
               {5, 4, 1, false}};
    a.untestable = {0, 1, 0};
    a.stats.pivots_done = 7;
    a.stats.pivots_total = 9;
    a.stats.implications = 41;
    a.stats.learned = 5;
    a.stats.constant_lines = 1;
    a.stats.proofs = 1;
    const std::string text = serialize_analysis(a);
    const auto back = parse_analysis(text);
    EXPECT_EQ(back.stuck, a.stuck);
    EXPECT_EQ(back.untestable, a.untestable);
    EXPECT_EQ(back.stats.pivots_done, 7u);
    EXPECT_EQ(back.stats.pivots_total, 9u);
    EXPECT_EQ(back.stats.implications, 41u);
    EXPECT_EQ(back.stats.learned, 5u);
    EXPECT_EQ(back.stats.constant_lines, 1u);
    EXPECT_EQ(back.stats.proofs, 1u);
    EXPECT_EQ(back.stop, support::StopReason::None);
    // Proofs are deliberately not serialized: downstream consumers only
    // need the marks and the stats.
    EXPECT_TRUE(back.proofs.empty());
    EXPECT_THROW(parse_analysis("dlproj-analysis 99\n"), std::runtime_error);
    EXPECT_THROW(parse_analysis("garbage"), std::runtime_error);
}

TEST(CampaignAnalysis, AxisGridSharesClassicCacheByteIdentically) {
    // The off cells of an analysis-axis grid carry the same keys and bytes
    // as a classic campaign's, so a cache warmed without the axis serves
    // them; the report must not depend on hit-vs-fresh for any cell.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {write_redundant_bench("axis")};
    spec.rules = {"uniform"};
    const std::string cache = scratch_dir("analysis_axis");
    const CampaignReport classic = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(classic.stats.cell_misses, 1u);
    EXPECT_FALSE(sweeps(classic.swept, "analysis"));
    EXPECT_EQ(classic.stats.analysis_misses, 0u);  // stage never ran

    set_grid_axis(spec, "analysis", "off, on");
    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_TRUE(sweeps(warm.swept, "analysis"));
    EXPECT_EQ(warm.stats.cell_hits, 1u);    // the off cell: classic bytes
    EXPECT_EQ(warm.stats.cell_misses, 1u);  // the on cell
    EXPECT_EQ(warm.stats.analysis_misses, 1u);
    const CampaignReport cold = run_campaign(
        spec, cached_options(scratch_dir("analysis_axis_cold")));
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));

    ASSERT_EQ(warm.cells.size(), 2u);
    const CellResult& off = warm.cells[0];
    const CellResult& on = warm.cells[1];
    EXPECT_FALSE(off.analysis);
    EXPECT_EQ(off.untestable_faults, 0u);
    EXPECT_TRUE(off.t_curve_raw.empty());
    EXPECT_TRUE(on.analysis);
    // The fixture's redundant AND gate yields untestable faults, and the
    // corrected coverage diverges from the raw curve in the report.
    EXPECT_GT(on.untestable_faults, 0u);
    ASSERT_FALSE(on.t_curve_raw.empty());
    EXPECT_LT(on.t_curve_raw.final(), on.t_curve.final());

    // A fully warm re-run hits both cells and reproduces the bytes.
    const CampaignReport rewarm = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(rewarm.stats.cell_hits, 2u);
    EXPECT_EQ(report_json(rewarm), report_json(warm));
}

TEST(CampaignAnalysis, EnvKillSwitchCachesAsClassic) {
    // DLPROJ_ANALYSIS=off is applied before cache keying, so a disabled
    // analysis cell is the classic cell: same keys, same bytes — and no
    // v3 artifacts are written that a later enabled run could mistake.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {write_redundant_bench("kill")};
    spec.rules = {"uniform"};
    set_grid_axis(spec, "analysis", "on");
    const std::string cache = scratch_dir("analysis_kill");

    ::setenv("DLPROJ_ANALYSIS", "off", 1);
    const CampaignReport off = run_campaign(spec, cached_options(cache));
    ::unsetenv("DLPROJ_ANALYSIS");
    EXPECT_EQ(off.stats.analysis_misses, 0u);
    ASSERT_EQ(off.cells.size(), 1u);
    EXPECT_FALSE(off.cells[0].analysis);
    EXPECT_EQ(off.cells[0].untestable_faults, 0u);

    // The same cache now serves a classic (no-axis) run byte-identically.
    CampaignSpec classic = spec;
    set_grid_axis(classic, "analysis", "off");
    const CampaignReport warm = run_campaign(classic, cached_options(cache));
    EXPECT_EQ(warm.stats.cell_hits, 1u);

    // With the switch back on, the enabled cell is a different key — a
    // miss, not a stale classic hit.
    const CampaignReport on = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(on.stats.cell_hits, 0u);
    EXPECT_EQ(on.stats.cell_misses, 1u);
    EXPECT_TRUE(on.cells[0].analysis);
    EXPECT_GT(on.cells[0].untestable_faults, 0u);
}

TEST(CampaignDefectStats, SpecAxisParsesCanonicalizesAndEnumeratesInnermost) {
    const CampaignSpec s = parse_campaign_spec(
        "[grid]\n"
        "circuits = c17\n"
        "rules = bridging, uniform\n"
        "analysis = off, on\n"
        "defect_stats = poisson, negbin:2, negbin:inf\n");
    EXPECT_TRUE(sweeps(swept_axes(s), "defect_stats"));
    EXPECT_EQ(s.cell_count(), 2u * 2u * 3u);
    // The backend is the innermost axis, and descriptors are canonical:
    // negbin:inf is spelled poisson so the alpha -> inf limit shares the
    // Poisson cache keys.
    EXPECT_EQ(item(cell_at(s, 0), "defect_stats"), "poisson");
    EXPECT_EQ(item(cell_at(s, 1), "defect_stats"), "negbin:2");
    EXPECT_EQ(item(cell_at(s, 2), "defect_stats"), "poisson");
    EXPECT_EQ(item(cell_at(s, 2), "analysis"), "off");
    EXPECT_EQ(item(cell_at(s, 3), "analysis"), "on");
    EXPECT_EQ(cell_at(s, 6).rules, "uniform");

    // A spec without the key has the single-poisson default: no axis.
    EXPECT_FALSE(
        sweeps(swept_axes(parse_campaign_spec(kSmallSpec)), "defect_stats"));
    EXPECT_THROW(
        parse_campaign_spec("[grid]\ncircuits = c17\nrules = uniform\n"
                            "defect_stats = negbin:-1\n"),
        std::runtime_error);
    EXPECT_THROW(
        parse_campaign_spec("[grid]\ncircuits = c17\nrules = uniform\n"
                            "defect_stats =\n"),
        std::runtime_error);
}

TEST(CampaignDefectStats, AxisGridSharesClassicCacheByteIdentically) {
    // The poisson cells of a defect_stats-axis grid carry the same keys
    // and bytes as a classic campaign's, so a cache warmed without the
    // axis serves them — and the clustered cell reuses the cached
    // faults/tests/sim artifacts (the backend only reinterprets the
    // detection tables; it never re-simulates).
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {"c17"};
    spec.rules = {"uniform"};
    const std::string cache = scratch_dir("defect_stats_axis");
    const CampaignReport classic = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(classic.stats.cell_misses, 1u);
    EXPECT_FALSE(sweeps(classic.swept, "defect_stats"));

    set_grid_axis(spec, "defect_stats", "poisson, negbin:2");
    const CampaignReport warm = run_campaign(spec, cached_options(cache));
    EXPECT_TRUE(sweeps(warm.swept, "defect_stats"));
    EXPECT_EQ(warm.stats.cell_hits, 1u);    // the poisson cell
    EXPECT_EQ(warm.stats.cell_misses, 1u);  // the negbin cell
    EXPECT_EQ(warm.stats.sim_hits, 1u);     // shared across the axis
    EXPECT_EQ(warm.stats.sim_misses, 0u);
    const CampaignReport cold = run_campaign(
        spec, cached_options(scratch_dir("defect_stats_axis_cold")));
    EXPECT_EQ(report_json(warm), report_json(cold));
    EXPECT_EQ(report_csv(warm), report_csv(cold));

    ASSERT_EQ(warm.cells.size(), 2u);
    const CellResult& poisson = warm.cells[0];
    const CellResult& negbin = warm.cells[1];
    EXPECT_EQ(poisson.defect_stats, "poisson");
    EXPECT_EQ(poisson.stat_yield, poisson.yield);
    EXPECT_EQ(negbin.defect_stats, "negbin:2");
    // Weight scaling stays Poisson, so the workload facts and curves are
    // bit-identical; only the statistical reinterpretation differs.
    EXPECT_EQ(negbin.yield, poisson.yield);
    EXPECT_EQ(negbin.vector_count, poisson.vector_count);
    ASSERT_EQ(negbin.theta_curve.size(), poisson.theta_curve.size());
    EXPECT_EQ(negbin.theta_curve.final(), poisson.theta_curve.final());
    // Clustering concentrates defects on few dies: more dies are clean.
    EXPECT_GT(negbin.stat_yield, negbin.yield);
    EXPECT_GT(negbin.fit_c_alpha, 0.0);

    // A fully warm re-run hits both cells and reproduces the bytes.
    const CampaignReport rewarm = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(rewarm.stats.cell_hits, 2u);
    EXPECT_EQ(report_json(rewarm), report_json(warm));
}

TEST(CampaignDefectStats, AlphaToInfinityMatchesPoissonEndToEnd) {
    // negbin with a huge alpha must agree with the Poisson pipeline end
    // to end: same workload bytes, and the clustered yield converges to
    // the Poisson yield (error is O(lambda^2 / alpha)).
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.circuits = {"c17"};
    spec.rules = {"uniform"};
    set_grid_axis(spec, "defect_stats", "poisson, negbin:1000000");
    const CampaignReport r =
        run_campaign(spec, cached_options(scratch_dir("defect_stats_inf")));
    ASSERT_EQ(r.cells.size(), 2u);
    const CellResult& poisson = r.cells[0];
    const CellResult& limit = r.cells[1];
    EXPECT_EQ(limit.defect_stats, "negbin:1000000");
    EXPECT_EQ(limit.yield, poisson.yield);
    EXPECT_EQ(limit.theta_curve.final(), poisson.theta_curve.final());
    EXPECT_NEAR(limit.stat_yield, poisson.yield,
                1e-5 * std::max(poisson.yield, 1e-300));
    // The joint clustered fit reproduces the Poisson fit in the limit.
    EXPECT_NEAR(limit.fit_c_r, poisson.fit_r, 1e-3 + 0.05 * poisson.fit_r);
    EXPECT_NEAR(limit.fit_c_theta_max, poisson.fit_theta_max,
                1e-3 + 0.05 * poisson.fit_theta_max);
}

// --- the optional-axis table ---------------------------------------------

/// Runs `dlproj_campaign --list <flag>=<list> <spec>`; returns the exit
/// status and stores stdout in `out`.
int list_with_flag(const std::string& bin, const std::string& spec,
                   const std::string& flag, const std::string& list,
                   std::string& out) {
    const std::string cmd = bin + " --list '" + flag + "=" + list + "' '" +
                            spec + "' 2>/dev/null";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (!pipe) return -1;
    out.clear();
    char buf[256];
    while (std::size_t n = std::fread(buf, 1, sizeof buf, pipe))
        out.append(buf, n);
    const int status = ::pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CampaignAxes, EveryAxisParsesAlikeInSpecSetterAndFlag) {
    // One good and one bad list per table entry: the [grid] line, the
    // set_grid_axis setter and the dlproj_campaign flag must agree on the
    // verdict and on the canonical items.  A new axis must add its case.
    struct Case {
        const char* good;
        std::vector<std::string> canonical;
        const char* bad;
    };
    const std::map<std::string, Case> cases = {
        {"ndetect", {"1, 02,64", {"1", "2", "64"}, "4x"}},
        {"analysis", {"0, on, true", {"off", "on", "on"}, "maybe"}},
        {"defect_stats",
         {"poisson, negbin:inf, negbin:2", {"poisson", "poisson", "negbin:2"},
          "negbin:-1"}},
    };
    const std::string base = "[grid]\ncircuits = c17\nrules = uniform\n";
    const std::string spec_path = scratch_dir("axes_spec.campaign");
    std::ofstream(spec_path) << base;
    const char* bin = std::getenv("DLPROJ_CAMPAIGN_BIN");

    for (std::size_t a = 0; a < grid_axes().size(); ++a) {
        const GridAxis& axis = grid_axes()[a];
        SCOPED_TRACE(axis.key);
        const auto it = cases.find(axis.key);
        ASSERT_NE(it, cases.end()) << "no test case for this axis";
        const Case& c = it->second;

        const CampaignSpec from_line = parse_campaign_spec(
            base + axis.key + " = " + c.good + "\n");
        EXPECT_EQ(from_line.axes[a], c.canonical);
        EXPECT_EQ(swept_axes(from_line), std::vector<std::size_t>{a});
        EXPECT_THROW(
            parse_campaign_spec(base + axis.key + " = " + c.bad + "\n"),
            std::runtime_error);

        CampaignSpec from_setter = parse_campaign_spec(base);
        EXPECT_EQ(from_setter.axes[a], std::vector<std::string>{axis.classic});
        set_grid_axis(from_setter, axis.key, c.good);
        EXPECT_EQ(from_setter.axes[a], c.canonical);
        EXPECT_THROW(set_grid_axis(from_setter, axis.key, c.bad),
                     std::runtime_error);
        EXPECT_EQ(from_setter.axes[a], c.canonical);  // unchanged on throw

        if (!bin) continue;  // outside ctest: no binary to drive
        std::string listing;
        ASSERT_EQ(list_with_flag(bin, spec_path, axis.flag, c.good, listing),
                  0);
        std::string expected;
        for (std::size_t i = 0; i < c.canonical.size(); ++i)
            expected += std::to_string(i) +
                        " c17 uniform seed=1 atpg=default " + axis.key + "=" +
                        c.canonical[i] + "\n";
        EXPECT_EQ(listing, expected);
        EXPECT_EQ(list_with_flag(bin, spec_path, axis.flag, c.bad, listing),
                  2);
    }
    // Only the optional axes go through the setter.
    CampaignSpec spec = parse_campaign_spec(base);
    EXPECT_THROW(set_grid_axis(spec, "bogus", "1"), std::runtime_error);
    EXPECT_THROW(set_grid_axis(spec, "circuits", "c17"), std::runtime_error);
}

TEST(CampaignBudget, VectorBudgetIsDeterministicConfigNotAnInterruption) {
    // max_vectors caps every cell identically; it is part of the cache key
    // and the stopped-early curves still cache and reproduce.
    CampaignSpec spec = parse_campaign_spec(kSmallSpec);
    spec.max_vectors = 8;
    const std::string cache = scratch_dir("budget");
    const CampaignReport a = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(a.stats.stop, support::StopReason::None);
    for (const CellResult& c : a.cells) EXPECT_LE(c.vector_count, 8u);
    const CampaignReport b = run_campaign(spec, cached_options(cache));
    EXPECT_EQ(b.stats.cell_hits, 4u);
    EXPECT_EQ(report_json(a), report_json(b));
    // A different budget is a different cache key, not a stale hit.
    CampaignSpec wider = spec;
    wider.max_vectors = 0;
    const CampaignReport c = run_campaign(wider, cached_options(cache));
    EXPECT_EQ(c.stats.cell_hits, 0u);
    EXPECT_NE(report_json(c), report_json(a));
}

}  // namespace
}  // namespace dlp::campaign
