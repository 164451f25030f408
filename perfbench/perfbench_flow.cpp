// Projection-flow benchmark program.
//
//   perfbench_flow --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>]
//
// Workloads (see README.md for why each was chosen):
//   c432-flow     one cold c432 projection per unit:
//                 prepare -> generate_tests -> simulate -> fit
//   rand500-atpg  build_random_circuit(32, 500, 7) with the analysis
//                 stage on: prepare -> analyze -> generate_tests
//   service-mixed in-process service::Service (3 workers x 1 cell thread)
//                 under 3 clients sending fixed batches of `project`
//                 requests, 4 of 5 against a warm set built during set-up
//
// Only public entry points are driven (flow::ExperimentRunner stages,
// layout::place_and_route, extract::extract_faults, service::Service and
// service::call_service); every time is taken here, around those calls.
// Set-up (circuit construction; service start and warm-set population)
// is repeated and timed apart from the measured phase.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 first repeats the
// untraced measurement, then measures again with src/obs collection on,
// and prints the per-layer metrics (spans taken here, counters from
// obs::counters_snapshot()) plus the tracing overhead.
//
// Outputs are checked: the flow workloads fingerprint their results
// against a pinned value; service-mixed compares every warm reply with the
// body recorded at set-up and recomputes a sample of cold cells without a
// cache.  A per-layer metric that must be non-zero on the workload, or an
// obs counter that was never registered, also fails the run.  The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "extract/extractor.h"
#include "flow/experiment.h"
#include "layout/place_route.h"
#include "netlist/builders.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"
#include "service/client.h"
#include "service/json.h"
#include "service/server.h"

namespace fs = std::filesystem;
using namespace dlp;

namespace {

// ---- flow inputs and their pinned fingerprints ------------------------------
// The flow workloads run fixed inputs whatever --seed says: the ATPG seed
// moves c432's switch-level work by ~30 % and the random circuit's PODEM
// work by up to 3x, far more than any run-to-run regression bound.

constexpr std::uint64_t kC432AtpgSeed = 5;  ///< as in bench/bench_util.h
constexpr const char* kC432Pin = "b37dd8f8cd88f609";
constexpr std::uint64_t kRandCircuitSeed = 7;
constexpr const char* kRandPin = "9fe35b4c521bfa56";

constexpr int kFlowSetupReps = 201;   ///< circuit builds take tens of us
constexpr int kServiceSetupReps = 5;  ///< service-mixed: full rig rebuilds
/// One client and one worker per client, 3 on 4 vCPUs: the clients, the
/// service's own threads and the kernel never have to preempt a cell.
constexpr int kClients = 3;
constexpr int kBatchPerClient = 50;   ///< 40 warm + 10 cold requests
constexpr int kMinBatches = 7;        ///< >= 1000 requests: p99 has 10 beyond
constexpr int kColdChecks = 6;        ///< cold cells recomputed per pass

// ---- measurement helpers -------------------------------------------------

double wall_now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double cpu_now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// FNV-1a 64 over the bytes of everything fed to it.
struct Fingerprint {
    std::uint64_t h = 14695981039346656037ull;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    template <class T>
    void seq(const std::vector<T>& v) {
        u64(v.size());
        for (const T& x : v) {
            if constexpr (std::is_floating_point_v<T>) f64(x);
            else u64(static_cast<std::uint64_t>(x));
        }
    }
    std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/// splitmix64: seeded request streams.
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return next() % n; }
};

using Counters = std::map<std::string, long long>;

Counters counters_now() {
    const auto snap = obs::counters_snapshot();
    return {snap.begin(), snap.end()};
}

/// Delta of one obs counter over a pass.  A name the program never
/// registered (renamed or misspelt) goes to `missing`, so the run fails
/// instead of reporting 0.
double counter_delta(const Counters& before, const Counters& after,
                     const std::string& name,
                     std::vector<std::string>& missing) {
    const auto a = after.find(name);
    if (a == after.end()) {
        missing.push_back(name);
        return 0.0;
    }
    const auto b = before.find(name);
    return static_cast<double>(a->second -
                               (b == before.end() ? 0 : b->second));
}

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string work_dir = ".bench_build";  ///< service cache dirs go here
};

class Report {
public:
    void metric(const std::string& name, double value, const char* unit) {
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                         name.c_str());
            value = 0.0;
            ok_ = false;
        }
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", value);
        items_ += (items_.empty() ? "" : ", ") + ("\"" + name + "\"") +
                  ": {\"value\": " + num + ", \"unit\": \"" + unit + "\"}";
    }
    void attempt(long n, long failed) {
        attempted_ += n;
        failed_ += failed;
    }
    void fail(const std::string& why) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        ok_ = false;
    }
    void print() const {
        std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                    "\"metrics\": {%s}}\n",
                    ok_ && failed_ == 0 && attempted_ > 0 ? "true" : "false",
                    attempted_, failed_, items_.c_str());
        std::fflush(stdout);
    }

private:
    std::string items_;
    long attempted_ = 0;
    long failed_ = 0;
    bool ok_ = true;
};

/// Metrics of one measured pass, before they are split into the end-to-end
/// and per-layer views.
struct Pass {
    long attempted = 0;
    long failed = 0;
    double wall_s = 0;  ///< median unit: a flow run, or a request batch
    double cpu_s = 0;   ///< median CPU time of a unit
    double units_per_s = 0;  ///< operations per second of a median unit
    std::vector<double> request_ms;
    std::map<std::string, double> layers;  ///< per-layer values, traced only
    std::vector<std::string> missing;      ///< obs counters never registered
};

// ---- flow workloads --------------------------------------------------------

int flow_threads() {
    return static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

struct FlowUnit {
    double wall = 0;
    double cpu = 0;
    std::map<std::string, double> stage;  ///< flow.<stage>_s
    std::string fingerprint;
    std::map<std::string, double> work;   ///< sizes read off the results
};

/// One cold projection (c432-flow) or one ATPG-bound run (rand500-atpg) on
/// a fresh runner.
FlowUnit run_flow_unit(const std::string& workload,
                       const netlist::Circuit& circuit,
                       const flow::ExperimentOptions& options) {
    flow::ExperimentRunner runner(circuit, options);
    FlowUnit u;
    const double c0 = cpu_now();
    const double t0 = wall_now();
    double last = t0;
    const auto lap = [&](const char* name) {
        const double t = wall_now();
        u.stage[name] = t - last;
        last = t;
    };
    Fingerprint fp;
    const auto& prepared = runner.prepare();
    lap("flow.prepare_s");
    if (workload == "c432-flow") {
        const auto& tests = runner.generate_tests();
        lap("flow.generate_tests_s");
        const auto& sim = runner.simulate();
        lap("flow.simulate_s");
        const auto& result = runner.fit();
        lap("flow.fit_s");
        u.wall = last - t0;
        u.cpu = cpu_now() - c0;
        if (result.interruption) throw std::runtime_error("c432 run stopped");
        for (const auto* c : {&result.t_curve, &result.theta_curve,
                              &result.gamma_curve, &result.theta_iddq_curve})
            fp.seq(c->values);
        fp.f64(result.fit.r);
        fp.f64(result.fit.theta_max);
        fp.u64(static_cast<std::uint64_t>(result.vector_count));
        u.work["atpg.vectors"] = static_cast<double>(tests.tests.vectors.size());
        double fault_vectors = 0, detected = 0;
        for (const int at : sim.first_detected_at) {
            fault_vectors += at > 0 ? at : static_cast<double>(sim.vectors_total);
            detected += at > 0;
        }
        u.work["switchsim.faults"] =
            static_cast<double>(sim.first_detected_at.size());
        u.work["switchsim.fault_vectors"] = fault_vectors;
        u.work["switchsim.detected"] = detected;
    } else {
        const auto& analysis = runner.analyze();
        lap("flow.analyze_s");
        const auto& tests = runner.generate_tests();
        lap("flow.generate_tests_s");
        u.wall = last - t0;
        u.cpu = cpu_now() - c0;
        if (tests.tests.stop != support::StopReason::None)
            throw std::runtime_error("rand500 ATPG stopped");
        fp.u64(tests.tests.vectors.size());
        for (const auto& v : tests.tests.vectors) {
            std::vector<std::uint8_t> bits(v.begin(), v.end());
            fp.seq(bits);
        }
        fp.seq(tests.tests.first_detected_at);
        fp.u64(tests.tests.redundant);
        fp.u64(tests.tests.aborted);
        fp.u64(analysis.stats.proofs);
        u.work["atpg.vectors"] = static_cast<double>(tests.tests.vectors.size());
        u.work["analysis.proofs"] = static_cast<double>(analysis.stats.proofs);
        u.work["analysis.implications"] =
            static_cast<double>(analysis.stats.implications);
        u.work["analysis.faults"] = static_cast<double>(analysis.stuck.size());
    }
    u.work["extract.faults"] =
        static_cast<double>(prepared.extraction.faults.size());
    u.fingerprint = fp.hex();
    return u;
}

/// Times layout::place_and_route and extract::extract_faults on the
/// mapped circuit of a fresh prepare().
void time_layers(const netlist::Circuit& circuit,
                 const flow::ExperimentOptions& options,
                 std::map<std::string, double>& layers) {
    flow::ExperimentRunner runner(circuit, options);
    const auto& mapped = runner.prepare().mapped;
    double t = wall_now();
    const auto chip = layout::place_and_route(mapped, options.layout);
    layers["layout.place_route_s"] = wall_now() - t;
    t = wall_now();
    extract::extract_faults(chip, options.defects, options.extract);
    layers["extract.extract_s"] = wall_now() - t;
}

struct FlowSetup {
    netlist::Circuit circuit;
    flow::ExperimentOptions options;
};

FlowSetup flow_setup(const Args& args) {
    FlowSetup s;
    if (args.workload == "c432-flow") {
        s.circuit = netlist::build_c432();
        s.options.atpg.seed = kC432AtpgSeed;
    } else {
        s.circuit = netlist::build_random_circuit(32, 500, kRandCircuitSeed);
        s.options.analysis = true;
    }
    s.options.parallel.threads = flow_threads();
    return s;
}

/// Runs units until the next one would overrun `seconds` (at least one).
Pass flow_pass(const Args& args, const FlowSetup& s, bool traced) {
    Pass p;
    std::vector<FlowUnit> units;
    const Counters before = counters_now();
    const double t0 = wall_now();
    const char* pin = args.workload == "c432-flow" ? kC432Pin : kRandPin;
    do {
        units.push_back(run_flow_unit(args.workload, s.circuit, s.options));
        ++p.attempted;
        std::fprintf(stderr, "perfbench: %s unit %zu: %.3f s, fingerprint %s\n",
                     args.workload.c_str(), units.size(), units.back().wall,
                     units.back().fingerprint.c_str());
        if (units.back().fingerprint != pin) ++p.failed;
        p.request_ms.push_back(units.back().wall * 1e3);
    } while (wall_now() - t0 + units.back().wall <= args.seconds);
    const Counters after = counters_now();
    const auto med = [&](auto field) {
        std::vector<double> v;
        for (const auto& u : units) v.push_back(field(u));
        return median(v);
    };
    p.wall_s = med([](const FlowUnit& u) { return u.wall; });
    p.cpu_s = med([](const FlowUnit& u) { return u.cpu; });
    p.units_per_s = 1.0 / p.wall_s;
    if (!traced) return p;

    // Per-layer view: stage spans and work sizes (median unit), the obs
    // counters summed over the pass and divided per unit.
    const auto per_unit = [&](const std::string& name) {
        return counter_delta(before, after, name, p.missing) /
               static_cast<double>(units.size());
    };
    auto& L = p.layers;
    for (const auto& kv : units.front().stage)
        L[kv.first] = med([&](const FlowUnit& u) { return u.stage.at(kv.first); });
    time_layers(s.circuit, s.options, L);
    for (const auto& kv : units.front().work)
        L[kv.first] = med([&](const FlowUnit& u) { return u.work.at(kv.first); });
    L["analysis.proof_frac"] =
        ratio(L["analysis.proofs"], L.count("analysis.faults")
                                        ? L["analysis.faults"] : 0.0);
    L.erase("analysis.faults");
    L["atpg.targets"] = per_unit("atpg.targets");
    L["atpg.backtracks"] = per_unit("atpg.backtracks");
    L["atpg.aborts"] = per_unit("atpg.aborts");
    L["atpg.abort_frac"] = ratio(L["atpg.aborts"], L["atpg.targets"]);
    L["atpg.backtracks_per_s"] =
        ratio(L["atpg.backtracks"], L["flow.generate_tests_s"]);
    L["gatesim.blocks"] = per_unit("faultsim.gate.blocks");
    L["gatesim.vectors"] = per_unit("faultsim.gate.vectors");
    L["switchsim.fault_vectors_per_s"] =
        ratio(L["switchsim.fault_vectors"], L["flow.simulate_s"]);
    L["switchsim.detected_frac"] =
        ratio(L["switchsim.detected"], L["switchsim.faults"]);
    L.erase("switchsim.detected");
    L["parallel.pool_idle_s"] = per_unit("pool.idle_ns") * 1e-9;
    std::vector<double> eff;
    for (const auto& u : units)
        eff.push_back(ratio(u.cpu, s.options.parallel.threads * u.wall));
    L["parallel.efficiency"] = median(eff);
    const char* bound = args.workload == "c432-flow" ? "flow.simulate_s"
                                                     : "flow.generate_tests_s";
    L["flow.bound_stage_frac"] = ratio(L[bound], p.wall_s);
    std::fprintf(stderr, "perfbench: %s is %.1f%% of wall_s on %s (>= 90%%: %s)\n",
                 bound, 100.0 * L["flow.bound_stage_frac"],
                 args.workload.c_str(),
                 L["flow.bound_stage_frac"] >= 0.9 ? "yes" : "no");
    return p;
}

// ---- service-mixed ----------------------------------------------------------

struct Cell {
    std::string circuit;
    std::string rules;
    std::uint64_t seed = 1;
};

const std::vector<std::string> kCircuits = {"c17", "adder4", "parity8", "mux3",
                                            "decoder3"};
const std::vector<std::string> kRules = {"bridging", "uniform"};

service::Request project_request(const Cell& cell, const std::string& key) {
    service::Request r;
    r.op = service::Op::Project;
    r.id = key;
    r.idempotency_key = key;  // unique: never served from the replay cache
    r.circuit = cell.circuit;
    r.rules = cell.rules;
    r.seed = cell.seed;
    return r;
}

/// A running service over a fresh cache dir, with its warm set committed
/// and the reply body of every warm cell recorded.
struct Rig {
    fs::path dir;
    service::ClientOptions client;
    std::unique_ptr<service::Service> svc;
    std::vector<Cell> warm;
    std::vector<std::string> warm_body;

    Rig(const fs::path& root, int rep) : dir(root / ("svc-" + std::to_string(::getpid()) +
                                                     "-" + std::to_string(rep))) {
        fs::remove_all(dir);
        fs::create_directories(dir / "cache");
        service::ServiceConfig cfg;
        // Relative to the working directory: a unix socket path is short.
        cfg.socket_path = fs::proximate(dir / "s.sock").string();
        cfg.cache_dir = (dir / "cache").string();
        // One worker per client: a request never waits in the admission
        // queue, so latency is service time.  With 2 workers the warm p50
        // depended on queue position and swung 1.2-2.4 ms run to run.
        cfg.workers = kClients;
        cfg.cell_threads = 1;
        cfg.queue_max = 2 * kClients;  // above the client count: no shedding
        client.socket_path = cfg.socket_path;
        svc = std::make_unique<service::Service>(cfg);
        svc->start();
        for (std::uint64_t seed : {1, 2})
            for (const auto& c : kCircuits)
                for (const auto& r : kRules) warm.push_back({c, r, seed});
        warm_body.resize(warm.size());
        std::vector<std::thread> fill;
        std::atomic<bool> bad{false};
        for (int t = 0; t < kClients; ++t)
            fill.emplace_back([&, t] {
                for (std::size_t i = t; i < warm.size(); i += kClients) {
                    const auto r = service::call_service(
                        project_request(warm[i], "setup-" + std::to_string(rep) +
                                                     "-" + std::to_string(i)),
                        client);
                    if (!r.ok()) bad = true;
                    warm_body[i] = r.body;
                }
            });
        for (auto& t : fill) t.join();
        if (bad) throw std::runtime_error("warm-set population failed");
    }
    ~Rig() {
        if (svc) svc->stop();
        svc.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;
};

struct Sample {
    double ms = 0;
    bool cold = false;
    bool ok = false;
    int retries = 0;
    std::size_t bytes = 0;
    Cell cell;          ///< cold samples only
    std::string body;   ///< cold samples only
};

std::uintmax_t dir_bytes(const fs::path& dir) {
    std::uintmax_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file()) n += e.file_size();
    return n;
}

/// The requests of one client in one batch, sent back to back.  Every
/// fifth request is cold, and the cold ones take each (circuit, rules)
/// pair once in a seeded order, so every batch computes the same mix of
/// cold cells; drawing the pair at random moved the batch cost with the
/// seed.  `pass` keeps idempotency keys and cold seeds of the traced pass
/// apart from the untraced one.
std::vector<Sample> client_batch(const Args& args, const Rig& rig, int pass,
                                 int batch, int client) {
    Rng rng((args.seed * 1000003u) ^ (static_cast<std::uint64_t>(pass) << 48) ^
            (static_cast<std::uint64_t>(batch) << 16) ^
            static_cast<std::uint64_t>(client));
    std::vector<std::size_t> order(kCircuits.size() * kRules.size());
    for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
    for (std::size_t k = order.size(); k > 1; --k)
        std::swap(order[k - 1], order[rng.below(k)]);
    std::vector<Sample> out;
    for (int i = 0; i < kBatchPerClient; ++i) {
        Sample s;
        s.cold = i % 5 == 4;
        std::size_t w = 0;
        Cell cell;
        if (s.cold) {
            const std::size_t pair = order[static_cast<std::size_t>(i / 5) %
                                           order.size()];
            cell = {kCircuits[pair / kRules.size()],
                    kRules[pair % kRules.size()],
                    3 + (rng.next() >> 34)};  // never a warm seed
        } else {
            w = rng.below(rig.warm.size());
            cell = rig.warm[w];
        }
        const std::string key = "p" + std::to_string(pass) + "-b" +
                                std::to_string(batch) + "-c" +
                                std::to_string(client) + "-" + std::to_string(i);
        const double t = wall_now();
        const auto r =
            service::call_service(project_request(cell, key), rig.client);
        s.ms = (wall_now() - t) * 1e3;
        s.retries = std::max(0, r.attempts - 1);
        s.bytes = r.raw.size();
        s.ok = r.ok() && (s.cold || r.body == rig.warm_body[w]);
        if (s.cold) {
            s.cell = cell;
            s.body = r.body;
        }
        out.push_back(std::move(s));
    }
    return out;
}

/// One measured pass: batches of kClients x kBatchPerClient requests, one
/// client thread each, until `seconds` have passed and at least kMinBatches
/// ran.  The batch is the unit: wall_s and cpu_s are the median batch's
/// cost, so they move with the program, not with the length of the pass.
Pass service_pass(const Args& args, Rig& rig, int pass, bool traced) {
    std::vector<Sample> samples;
    std::vector<double> batch_wall, batch_cpu;
    const Counters before = counters_now();
    const long long replays0 = rig.svc->stats().replays;
    const long long shed0 = rig.svc->stats().shed;
    const double t0 = wall_now();
    for (int b = 0; b < kMinBatches || wall_now() - t0 < args.seconds; ++b) {
        std::vector<std::vector<Sample>> per_client(kClients);
        const double c0 = cpu_now();
        const double w0 = wall_now();
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back([&, b, c] {
                per_client[c] = client_batch(args, rig, pass, b, c);
            });
        for (auto& t : clients) t.join();
        batch_wall.push_back(wall_now() - w0);
        batch_cpu.push_back(cpu_now() - c0);
        for (auto& v : per_client)
            for (auto& s : v) samples.push_back(std::move(s));
    }
    Pass p;
    p.wall_s = median(batch_wall);
    p.cpu_s = median(batch_cpu);
    p.units_per_s = kClients * kBatchPerClient / p.wall_s;
    const Counters after = counters_now();

    std::vector<Sample*> cold;
    for (auto& s : samples)
        if (s.cold) cold.push_back(&s);
    // Untimed: recompute a seeded sample of cold cells without any cache;
    // the replies must match byte for byte.
    Rng pick(args.seed ^ 0x5eedc01du ^ static_cast<std::uint64_t>(pass));
    for (int k = 0; k < kColdChecks && !cold.empty(); ++k) {
        Sample& s = *cold[pick.below(cold.size())];
        if (!s.ok) continue;
        campaign::CampaignSpec spec;
        spec.name = "project";
        spec.circuits = {s.cell.circuit};
        spec.rules = {s.cell.rules};
        spec.seeds = {s.cell.seed};
        campaign::CampaignOptions opt;
        opt.use_cache = false;
        opt.parallel.threads = 1;
        const std::string body = service::write_json(service::parse_json(
            campaign::report_json(campaign::run_campaign(spec, opt))));
        if (body != s.body) {
            std::fprintf(stderr, "perfbench: cold cell %s/%s/%llu differs from "
                                 "its recomputation\n",
                         s.cell.circuit.c_str(), s.cell.rules.c_str(),
                         static_cast<unsigned long long>(s.cell.seed));
            s.ok = false;
        }
    }
    std::vector<double> warm_ms, cold_ms;
    long retries = 0;
    double reply_bytes = 0;
    for (const Sample& s : samples) {
        ++p.attempted;
        p.failed += !s.ok;
        p.request_ms.push_back(s.ms);
        (s.cold ? cold_ms : warm_ms).push_back(s.ms);
        retries += s.retries;
        reply_bytes += static_cast<double>(s.bytes);
    }
    const long long replays = rig.svc->stats().replays - replays0;
    if (replays != 0) {
        std::fprintf(stderr, "perfbench: %lld replayed replies\n", replays);
        p.failed += replays;
    }
    if (!traced) return p;
    auto& L = p.layers;
    const auto delta = [&](const char* name) {
        return counter_delta(before, after, name, p.missing);
    };
    L["campaign.cell_hits"] = delta("campaign.cell.cache_hit");
    L["campaign.cell_misses"] = delta("campaign.cell.cache_miss");
    L["campaign.store_writes"] = delta("campaign.store.write");
    L["campaign.store_corrupt"] = delta("campaign.store.corrupt");
    L["campaign.store_bytes"] = static_cast<double>(dir_bytes(rig.dir / "cache"));
    L["service.request_p50_ms"] = percentile(p.request_ms, 0.50);
    L["service.warm_p50_ms"] = percentile(warm_ms, 0.50);
    L["service.warm_p99_ms"] = percentile(warm_ms, 0.99);
    L["service.cold_p50_ms"] = percentile(cold_ms, 0.50);
    L["service.cold_p99_ms"] = percentile(cold_ms, 0.99);
    L["service.shed"] = static_cast<double>(rig.svc->stats().shed - shed0);
    L["service.replays"] = static_cast<double>(replays);
    L["service.client_retries"] = static_cast<double>(retries);
    L["service.reply_bytes"] = reply_bytes;
    return p;
}

// ---- main --------------------------------------------------------------------

/// Workloads on which a per-layer metric must read non-zero: the traced
/// run fails if it does not, so a renamed counter or a stage that stopped
/// running cannot pass as a 0.
enum Home : unsigned { kNone = 0, kC432 = 1, kRand = 2, kFlows = 3, kService = 4 };

struct LayerMetric {
    const char* name;
    const char* unit;
    unsigned home;
};

const std::vector<LayerMetric> kLayerMetrics = {
    {"flow.prepare_s", "s", kFlows},
    {"flow.analyze_s", "s", kRand},
    {"flow.generate_tests_s", "s", kFlows},
    {"flow.simulate_s", "s", kC432},
    {"flow.fit_s", "s", kC432},
    {"flow.bound_stage_frac", "frac", kFlows},
    {"layout.place_route_s", "s", kFlows},
    {"extract.extract_s", "s", kFlows},
    {"extract.faults", "count", kFlows},
    {"analysis.proofs", "count", kRand},
    {"analysis.implications", "count", kRand},
    {"analysis.proof_frac", "frac", kRand},
    {"atpg.targets", "count", kFlows},
    {"atpg.backtracks", "count", kFlows},
    {"atpg.aborts", "count", kRand},
    {"atpg.abort_frac", "frac", kRand},
    {"atpg.backtracks_per_s", "1/s", kFlows},
    {"atpg.vectors", "count", kFlows},
    {"gatesim.blocks", "count", kFlows},
    {"gatesim.vectors", "count", kFlows},
    {"switchsim.faults", "count", kC432},
    {"switchsim.fault_vectors", "count", kC432},
    {"switchsim.fault_vectors_per_s", "1/s", kC432},
    {"switchsim.detected_frac", "frac", kC432},
    {"parallel.pool_idle_s", "s", kC432},
    {"parallel.efficiency", "frac", kC432},
    {"campaign.cell_hits", "count", kService},
    {"campaign.cell_misses", "count", kService},
    {"campaign.store_writes", "count", kService},
    {"campaign.store_corrupt", "count", kNone},  // 0 unless the store is bad
    {"campaign.store_bytes", "bytes", kService},
    {"service.request_p50_ms", "ms", kService},
    {"service.warm_p50_ms", "ms", kService},
    {"service.warm_p99_ms", "ms", kService},
    {"service.cold_p50_ms", "ms", kService},
    {"service.cold_p99_ms", "ms", kService},
    {"service.shed", "count", kNone},           // queue_max > clients
    {"service.replays", "count", kNone},        // unique keys: must be 0
    {"service.client_retries", "count", kNone},
    {"service.reply_bytes", "bytes", kService},
};

unsigned home_of(const std::string& workload) {
    return workload == "c432-flow" ? kC432 : workload == "rand500-atpg" ? kRand
                                                                        : kService;
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v), have_seed = true;
        else if (k == "--seconds") a.seconds = std::stod(v), have_seconds = true;
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--work-dir") a.work_dir = v;
        else throw std::runtime_error("unknown argument " + k);
    }
    if (a.workload != "c432-flow" && a.workload != "rand500-atpg" &&
        a.workload != "service-mixed")
        throw std::runtime_error("unknown workload '" + a.workload + "'");
    if (!have_seed || !have_seconds || a.seconds <= 0)
        throw std::runtime_error("--seed and --seconds are required");
    return a;
}

int run(const Args& args) {
    obs::set_enabled(false);
    Report report;
    std::vector<double> setup;
    // Pass 0 is the untraced measurement; a traced run adds pass 1 with
    // collection on.
    std::vector<Pass> passes;
    if (args.workload == "service-mixed") {
        const fs::path root = fs::path(args.work_dir);
        std::unique_ptr<Rig> rig;
        for (int rep = 0; rep < kServiceSetupReps; ++rep) {
            rig.reset();
            const double t = wall_now();
            rig = std::make_unique<Rig>(root, rep);
            setup.push_back(wall_now() - t);
        }
        passes.push_back(service_pass(args, *rig, 0, false));
        if (args.trace) {
            obs::set_enabled(true);
            passes.push_back(service_pass(args, *rig, 1, true));
            obs::set_enabled(false);
        }
    } else {
        // The pool is started once and untimed.  Starting it is thread
        // creation and waking idle vCPUs, kernel work that moved 28-30 %
        // between two sets of runs in which the flows moved 10-12 %.  Set-up
        // time is the circuit construction only.
        parallel::ThreadPool::global().run(flow_threads(), [](int) {});
        std::unique_ptr<FlowSetup> s;
        for (int rep = 0; rep < kFlowSetupReps; ++rep) {
            s.reset();
            const double t = wall_now();
            s = std::make_unique<FlowSetup>(flow_setup(args));
            setup.push_back(wall_now() - t);
        }
        passes.push_back(flow_pass(args, *s, false));
        if (args.trace) {
            obs::set_enabled(true);
            // Re-park the pool helpers so their idle time is clocked.
            parallel::ThreadPool::global().run(flow_threads(), [](int) {});
            passes.push_back(flow_pass(args, *s, true));
            obs::set_enabled(false);
        }
    }
    for (const Pass& p : passes) report.attempt(p.attempted, p.failed);

    if (!args.trace) {
        const Pass& p = passes[0];
        report.metric("setup_s", median(setup), "s");
        report.metric("wall_s", p.wall_s, "s");
        report.metric("cpu_s", p.cpu_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.metric("requests_per_s", p.units_per_s, "1/s");
        // The request p50 is reported by the traced run only: it is a warm
        // reply (~0.4 ms of thread hand-offs) and moved 1.35-1.45x with host
        // load, more than any end-to-end bound allows.
        report.metric("request_p99_ms", percentile(p.request_ms, 0.99), "ms");
    } else {
        const Pass& plain = passes[0];
        const Pass& traced = passes[1];
        for (const auto& name : traced.missing)
            report.fail("obs counter " + name + " was never registered");
        for (const auto& m : kLayerMetrics) {
            const auto it = traced.layers.find(m.name);
            const double v = it == traced.layers.end() ? 0.0 : it->second;
            if ((m.home & home_of(args.workload)) && v == 0.0)
                report.fail(std::string(m.name) + " must not be 0 on " +
                            args.workload);
            report.metric(m.name, v, m.unit);
        }
        report.metric("obs.trace_overhead_frac",
                      (traced.wall_s - plain.wall_s) / plain.wall_s, "frac");
    }
    report.print();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_flow: %s\n", e.what());
        return 1;
    }
}
