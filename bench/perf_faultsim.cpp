// Throughput benchmarks (google-benchmark): gate-level levelized fault
// simulation, switch-level solve, PODEM, extraction.  After the registered
// benchmarks run, a directly timed telemetry-enabled pass writes
// BENCH_faultsim.json to the working directory so the perf trajectory
// accumulates machine-readably: one row per (engine, circuit) over the
// synthetic corpus (c432 plus the committed data/synth_*.bench generator
// settings), plus levelized_vs_naive, the items/s ratio of the two c432
// rows (scripts/bench_faultsim.sh enforces a floor on it).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "atpg/generate.h"
#include "bench_util.h"
#include "extract/extractor.h"
#include "flow/experiment.h"
#include "gatesim/engine.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "layout/place_route.h"
#include "netlist/builders.h"
#include "netlist/techmap.h"
#include "obs/telemetry.h"
#include "switchsim/switch_fault_sim.h"

namespace {

using namespace dlp;

const netlist::Circuit& mapped_c432() {
    static const netlist::Circuit c = netlist::techmap(netlist::build_c432());
    return c;
}

// Args: {vectors, worker threads}.
void BM_GateLevelFaultSim(benchmark::State& state) {
    const auto& c = mapped_c432();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(1);
    const auto vectors = rng.vectors(c, static_cast<int>(state.range(0)));
    const parallel::ParallelOptions par{static_cast<int>(state.range(1))};
    for (auto _ : state) {
        gatesim::LevelizedFaultSimulator sim(c, faults, par);
        sim.apply(vectors);
        benchmark::DoNotOptimize(sim.coverage());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) *
                            static_cast<long>(faults.size()));
}
BENCHMARK(BM_GateLevelFaultSim)
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->UseRealTime();

// The fault-free switch-level trace over 64 c432 vectors.  oracle:0 is the
// production levelized pass on compiled tables (SwitchSim::settle);
// oracle:1 the reference SwitchSim::step, every component swept from X.
void BM_SwitchLevelGoodSim(benchmark::State& state) {
    const auto& c = mapped_c432();
    const auto net = switchsim::build_switch_netlist(c);
    const switchsim::SwitchSim sim(net);
    gatesim::RandomPatternGenerator rng(1);
    const auto vectors = rng.vectors(c, 64);
    std::unique_ptr<bool[]> buf(new bool[c.inputs().size()]);
    const bool oracle = state.range(0) != 0;
    for (auto _ : state) {
        auto st = sim.initial_state();
        auto next = st;
        for (const auto& v : vectors) {
            for (size_t i = 0; i < v.size(); ++i) buf[i] = v[i];
            const std::span<const bool> in(buf.get(), v.size());
            if (oracle) {
                sim.step(st, in);
            } else {
                sim.settle(next, st, in);
                std::swap(st, next);
            }
        }
        benchmark::DoNotOptimize(st);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SwitchLevelGoodSim)->ArgName("oracle")->Arg(0)->Arg(1);

void BM_Podem(benchmark::State& state) {
    const auto& c = mapped_c432();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    const atpg::Testability t = atpg::compute_testability(c);
    for (auto _ : state) {
        atpg::Podem podem(c, t);
        int found = 0;
        for (size_t i = 0; i < faults.size(); i += 16) {
            const auto res = podem.generate(faults[i], 2048);
            found += res.status == atpg::PodemResult::Status::TestFound;
        }
        benchmark::DoNotOptimize(found);
    }
}
BENCHMARK(BM_Podem);

void BM_LayoutAndExtraction(benchmark::State& state) {
    const auto& c = mapped_c432();
    for (auto _ : state) {
        const auto chip = layout::place_and_route(c);
        const auto r = extract::extract_faults(
            chip, extract::DefectStatistics::cmos_bridging_dominant());
        benchmark::DoNotOptimize(r.total_weight);
    }
}
BENCHMARK(BM_LayoutAndExtraction);

// Args: {vectors, worker threads}.  The speedup acceptance target for the
// parallel engine reads off the per-thread-count rows here.
void BM_SwitchLevelFaultSim(benchmark::State& state) {
    const auto& c = mapped_c432();
    const auto chip = layout::place_and_route(c);
    const auto extraction = extract::extract_faults(
        chip, extract::DefectStatistics::cmos_bridging_dominant());
    const auto net = switchsim::build_switch_netlist(c);
    const switchsim::SwitchSim sim(net);
    const auto faults = flow::to_switch_faults(extraction, chip, net);
    gatesim::RandomPatternGenerator rng(1);
    std::vector<switchsim::Vector> vectors;
    for (const auto& v : rng.vectors(c, static_cast<int>(state.range(0))))
        vectors.emplace_back(v.begin(), v.end());
    const parallel::ParallelOptions par{static_cast<int>(state.range(1))};
    for (auto _ : state) {
        switchsim::SwitchFaultSimulator fs(sim, faults, par);
        fs.apply(vectors);
        benchmark::DoNotOptimize(fs.weighted_coverage());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) *
                            static_cast<long>(faults.size()));
}
BENCHMARK(BM_SwitchLevelFaultSim)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One (engine, circuit) fault-sim pass, directly timed; best of `reps`.
struct EngineRow {
    std::string circuit;
    std::size_t gates = 0;
    std::string engine;
    int vectors = 0;
    std::size_t faults = 0;
    double wall_s = 0.0;
    double items_per_s = 0.0;
};

EngineRow time_engine(const std::string& circuit_name,
                      const netlist::Circuit& c, std::string_view engine_name,
                      int vectors, int reps) {
    using clock = std::chrono::steady_clock;
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(1);
    const auto vecs = rng.vectors(c, vectors);
    const sim::Engine& eng = sim::engine(engine_name);

    EngineRow row;
    row.circuit = circuit_name;
    row.gates = gatesim::levelize(c).logic_gate_count();
    row.engine = engine_name;
    row.vectors = vectors;
    row.faults = faults.size();
    row.wall_s = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = clock::now();
        auto session = eng.open(c, faults);
        session->apply(vecs);
        benchmark::DoNotOptimize(session->detected_count());
        const double secs =
            std::chrono::duration<double>(clock::now() - t0).count();
        row.wall_s = std::min(row.wall_s, secs);
    }
    row.items_per_s = static_cast<double>(vectors) *
                      static_cast<double>(faults.size()) / row.wall_s;
    std::fprintf(stderr, "[bench] %-9s %-9s %5d vec  %.4fs\n",
                 circuit_name.c_str(), row.engine.c_str(), vectors,
                 row.wall_s);
    return row;
}

// The per-engine grid over the synthetic corpus.  The synth circuits are
// regenerated from the same (inputs, gates, seed) settings as the committed
// data/synth_*.bench fixtures, so the rows name the fixtures without the
// bench needing a source-tree path.  The naive oracle only runs on c432
// with a reduced vector count (it is O(faults x vectors x gates) scalar
// work, there to calibrate the scale, not to race).
std::vector<EngineRow> engine_grid() {
    struct Workload {
        std::string name;
        netlist::Circuit circuit;
        int vectors;
        bool naive_too;
    };
    std::vector<Workload> loads;
    loads.push_back({"c432", mapped_c432(), 256, true});
    loads.push_back(
        {"synth_2k", netlist::build_random_circuit(64, 2000, 42), 256, false});
    loads.push_back(
        {"synth_5k", netlist::build_random_circuit(96, 5000, 7), 256, false});
    loads.push_back({"synth_10k", netlist::build_random_circuit(128, 10000, 11),
                     256, false});

    std::vector<EngineRow> rows;
    for (const auto& w : loads) {
        const int reps = w.name == "c432" ? 3 : 1;
        if (w.naive_too)
            rows.push_back(time_engine(w.name, w.circuit, "naive", 64, 1));
        rows.push_back(
            time_engine(w.name, w.circuit, "levelized", w.vectors, reps));
    }
    return rows;
}

// Telemetry-enabled passes, directly timed.  The counters land in the JSON
// alongside throughput, so a regression can be attributed (fewer blocks?
// more faults remaining?) without a rerun.
void write_bench_json() {
    using clock = std::chrono::steady_clock;
    const auto secs_since = [](clock::time_point t0) {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };
    dlp::obs::set_enabled(true);
    dlp::obs::reset();
    const int threads = parallel::resolve_threads(0);

    const std::vector<EngineRow> rows = engine_grid();

    const auto& c = mapped_c432();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    gatesim::RandomPatternGenerator rng(1);
    const auto gate_vectors = rng.vectors(c, 256);
    const auto gate_t0 = clock::now();
    gatesim::LevelizedFaultSimulator gsim(c, faults);
    gsim.apply(gate_vectors);
    const double gate_secs = secs_since(gate_t0);
    const double gate_items =
        256.0 * static_cast<double>(faults.size());

    const auto chip = layout::place_and_route(c);
    const auto extraction = extract::extract_faults(
        chip, extract::DefectStatistics::cmos_bridging_dominant());
    const auto net = switchsim::build_switch_netlist(c);
    const switchsim::SwitchSim sim(net);
    auto swfaults = flow::to_switch_faults(extraction, chip, net);
    std::vector<switchsim::Vector> sw_vectors;
    // Enough vectors that the row measures steady-state fault-vector work
    // (undetected faults with retained charge), not the first-vector burst.
    constexpr int kSwitchVectors = 256;
    for (const auto& v : rng.vectors(c, kSwitchVectors))
        sw_vectors.emplace_back(v.begin(), v.end());
    const auto sw_t0 = clock::now();
    switchsim::SwitchFaultSimulator fsim(sim, std::move(swfaults));
    fsim.apply(sw_vectors);
    const double sw_secs = secs_since(sw_t0);
    const double sw_items =
        kSwitchVectors * static_cast<double>(fsim.faults().size());

    // rows[0] and rows[1] are the c432 naive and levelized rows.
    const double levelized_vs_naive =
        rows[1].items_per_s / rows[0].items_per_s;

    char head[640];
    std::snprintf(
        head, sizeof head,
        "{\n"
        "  \"bench\": \"faultsim\",\n"
        "  \"threads\": %d,\n"
        "  \"gate_level\": {\"vectors\": 256, \"faults\": %zu, "
        "\"wall_s\": %.6f, \"items_per_s\": %.0f},\n"
        "  \"switch_level\": {\"vectors\": %d, \"faults\": %zu, "
        "\"wall_s\": %.6f, \"items_per_s\": %.0f},\n"
        "  \"levelized_vs_naive\": %.1f,\n",
        threads, faults.size(), gate_secs, gate_items / gate_secs,
        kSwitchVectors, fsim.faults().size(), sw_secs, sw_items / sw_secs,
        levelized_vs_naive);

    // One row per line so scripts/bench_faultsim.sh can grep/sed them.
    std::string engines = "  \"engines\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const EngineRow& r = rows[i];
        char line[512];
        std::snprintf(
            line, sizeof line,
            "    {\"circuit\": \"%s\", \"gates\": %zu, \"engine\": \"%s\", "
            "\"vectors\": %d, \"faults\": %zu, \"wall_s\": %.6f, "
            "\"items_per_s\": %.0f}%s\n",
            r.circuit.c_str(), r.gates, r.engine.c_str(), r.vectors, r.faults,
            r.wall_s, r.items_per_s, i + 1 < rows.size() ? "," : "");
        engines += line;
    }
    engines += "  ],\n";

    const std::string path = "BENCH_faultsim.json";
    if (dlp::bench::write_file(
            path,
            head + engines + dlp::bench::telemetry_json_fields() + "\n}\n"))
        std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    else
        std::fprintf(stderr, "[bench] failed to write %s\n", path.c_str());
    dlp::obs::set_enabled(false);
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    write_bench_json();
    return 0;
}
