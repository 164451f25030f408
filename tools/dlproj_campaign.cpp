// dlproj_campaign: batched experiment campaigns over a declarative grid
// (circuits × rule decks × seeds × ATPG configs × the optional axes of
// src/campaign/axes.cpp), backed by the content-addressed artifact cache
// in src/campaign.
//
//   dlproj_campaign [options] <spec.campaign>
//
//   --cache-dir=PATH  artifact cache root (default: $DLPROJ_CACHE, else
//                     the cache is disabled)
//   --no-cache        disable the artifact cache for this run
//   --shard=I/N       run only shard I of a deterministic N-way partition
//                     of the grid (CI fan-out); reports stay mergeable
//   --json=PATH       write the JSON report to PATH ("-" = stdout, the
//                     default when neither --json nor --csv is given)
//   --csv=PATH        write the CSV report to PATH ("-" = stdout)
//   --stats=PATH      write cache/run accounting JSON (with wall_ms) to
//                     PATH ("-" = stderr summary is always printed)
//   --threads=N       worker count within each cell (0 = default)
//   --max-vectors=N   override the spec's per-cell vector budget
//   --ndetect=LIST, --analysis=LIST, --defect-stats=LIST
//                     override the spec's optional [grid] axis with a
//                     comma-separated list, parsed exactly as the spec
//                     line is (src/campaign/axes.cpp): n-detection targets
//                     in [1, 64], on/off settings, or backend descriptors
//                     (e.g. --ndetect=1,2,4,8 --analysis=off,on
//                     --defect-stats=poisson,negbin:0.5,negbin:2)
//   --timeout-ms=N    wall-clock budget for the whole campaign; on expiry
//                     the run stops at the next cell/stage boundary and
//                     the partial report (an exact prefix) is emitted
//   --no-recover      skip the startup artifact-store crash recovery
//                     (required when other writers share the cache
//                     concurrently, e.g. CI shard fan-out)
//   --list            print the grid cells (index, identity) and exit
//   --quiet           suppress the stderr progress/summary lines
//
// SIGINT trips the campaign's cancel token: the run stops at the next
// boundary, everything completed so far is committed to the cache and
// emitted as a partial report, and the exit status is 130.  A second
// SIGINT kills the process immediately (the handler is one-shot).
//
// Exit status: 0 success, 1 campaign failure (lint gate, bad inputs),
// 2 usage or I/O error, 130 interrupted (SIGINT).  A run stopped by
// --timeout-ms / DLPROJ_DEADLINE_MS budgets exits 0 with the stop
// recorded in the stats document.
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "support/cancel.h"
#include "support/parse.h"

#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "flow/report.h"

namespace {

// SIGINT handler state: CancelToken::request() is a lock-free atomic
// store, which is async-signal-safe.  SA_RESETHAND makes the handler
// one-shot, so a second SIGINT falls back to the default (kill).
dlp::support::CancelToken g_interrupt;

extern "C" void on_interrupt(int) { g_interrupt.request(); }

void install_interrupt_handler() {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_interrupt;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;
    sigaction(SIGINT, &sa, nullptr);
}

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--cache-dir=PATH] [--no-cache] [--shard=I/N]"
                 " [--json=PATH] [--csv=PATH] [--stats=PATH]"
                 " [--threads=N] [--max-vectors=N]";
    for (const dlp::campaign::GridAxis& a : dlp::campaign::grid_axes())
        std::cerr << " [" << a.flag << "=LIST]";
    std::cerr << " [--timeout-ms=N] [--no-recover] [--list] [--quiet]"
                 " <spec.campaign>\n";
    return 2;
}

void emit(const std::string& path, const std::string& contents) {
    if (path == "-")
        std::cout << contents;
    else
        dlp::flow::write_file(path, contents);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace dlp;

    std::string cache_dir = campaign::env_cache_dir();
    bool no_cache = false;
    bool list = false;
    bool quiet = false;
    std::string json_path;
    std::string csv_path;
    std::string stats_path;
    std::string spec_path;
    campaign::Shard shard;
    int threads = 0;
    long long max_vectors = -1;  // <0: keep the spec's value
    long long timeout_ms = 0;    // 0: no campaign-level deadline
    bool no_recover = false;
    const std::vector<campaign::GridAxis>& axes = campaign::grid_axes();
    std::vector<std::string> axis_lists(axes.size());  // "": keep the spec's

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* flag) {
            return arg.substr(std::strlen(flag));
        };
        const auto axis = std::find_if(
            axes.begin(), axes.end(), [&](const campaign::GridAxis& a) {
                return arg.rfind(std::string(a.flag) + "=", 0) == 0;
            });
        try {
            if (arg.rfind("--cache-dir=", 0) == 0)
                cache_dir = value("--cache-dir=");
            else if (arg == "--no-cache")
                no_cache = true;
            else if (arg.rfind("--shard=", 0) == 0)
                shard = campaign::parse_shard(value("--shard="));
            else if (arg.rfind("--json=", 0) == 0)
                json_path = value("--json=");
            else if (arg.rfind("--csv=", 0) == 0)
                csv_path = value("--csv=");
            else if (arg.rfind("--stats=", 0) == 0)
                stats_path = value("--stats=");
            else if (arg.rfind("--threads=", 0) == 0)
                threads = static_cast<int>(
                    support::parse_int(value("--threads="), 0, 256));
            else if (arg.rfind("--max-vectors=", 0) == 0)
                max_vectors = support::parse_int(value("--max-vectors="));
            else if (arg.rfind("--timeout-ms=", 0) == 0)
                timeout_ms =
                    support::parse_int(value("--timeout-ms="), 0, 1ll << 40);
            else if (axis != axes.end())
                axis_lists[axis - axes.begin()] = value(axis->flag).substr(1);
            else if (arg == "--no-recover")
                no_recover = true;
            else if (arg == "--list")
                list = true;
            else if (arg == "--quiet")
                quiet = true;
            else if (arg.rfind("--", 0) == 0) {
                std::cerr << argv[0] << ": unknown option " << arg << "\n";
                return usage(argv[0]);
            } else if (spec_path.empty())
                spec_path = arg;
            else {
                std::cerr << argv[0] << ": extra argument " << arg << "\n";
                return usage(argv[0]);
            }
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": bad value in " << arg << ": "
                      << e.what() << "\n";
            return usage(argv[0]);
        }
    }
    if (spec_path.empty()) return usage(argv[0]);

    campaign::CampaignSpec spec;
    try {
        spec = campaign::load_campaign_spec(spec_path);
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    if (max_vectors >= 0) spec.max_vectors = max_vectors;
    // The axis flags reuse the spec's [grid] list parser, so a flag
    // accepts and rejects exactly what the spec line would.
    for (std::size_t a = 0; a < axes.size(); ++a) {
        if (axis_lists[a].empty()) continue;
        try {
            campaign::set_grid_axis(spec, axes[a].key, axis_lists[a]);
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": bad " << axes[a].flag << " list '"
                      << axis_lists[a] << "': " << e.what() << "\n";
            return 2;
        }
    }

    if (list) {
        // An optional axis gets a column only when the grid sweeps it, so
        // the listing of a classic spec keeps its exact bytes.
        const std::vector<std::size_t> swept = campaign::swept_axes(spec);
        for (std::size_t i = 0; i < spec.cell_count(); ++i) {
            const campaign::Cell c = campaign::cell_at(spec, i);
            std::cout << i << " " << c.circuit << " " << c.rules << " seed="
                      << c.seed << " atpg=" << c.atpg;
            for (std::size_t a : swept)
                std::cout << " " << axes[a].key << "=" << c.axes[a];
            std::cout << "\n";
        }
        return 0;
    }

    campaign::CampaignOptions opt;
    opt.cache_dir = cache_dir;
    opt.use_cache = !no_cache && !cache_dir.empty();
    opt.shard = shard;
    opt.parallel.threads = threads;
    opt.budget.cancel = g_interrupt;
    if (timeout_ms > 0)
        opt.budget.deadline = support::Deadline::after_ms(timeout_ms);

    if (opt.use_cache && !no_recover) {
        // Heal any torn commit a crashed/killed predecessor left behind
        // before this run trusts the cache.  Single-writer assumption:
        // concurrent shards must pass --no-recover (recovery would see
        // their live intents as orphans).
        try {
            const campaign::RecoveryReport rec =
                campaign::recover_store(cache_dir);
            if (!quiet && (rec.intents || rec.quarantined || rec.stale_tmps))
                std::cerr << "store recovery: "
                          << campaign::recovery_summary(rec) << "\n";
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": store recovery failed: " << e.what()
                      << "\n";
            return 2;
        }
    }

    install_interrupt_handler();
    if (!quiet)
        opt.progress = [](std::string_view stage, std::size_t done,
                          std::size_t total) {
            if (stage == "campaign")
                std::cerr << "campaign: " << done << "/" << total
                          << " cells\n";
        };

    const auto t0 = std::chrono::steady_clock::now();
    campaign::CampaignReport report;
    try {
        report = campaign::run_campaign(spec, opt);
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 1;
    }
    const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

    try {
        if (json_path.empty() && csv_path.empty()) json_path = "-";
        if (!json_path.empty())
            emit(json_path, campaign::report_json(report));
        if (!csv_path.empty()) emit(csv_path, campaign::report_csv(report));
        if (!stats_path.empty()) {
            // Splice wall_ms into the accounting document (the library
            // keeps timing out of its deterministic output on purpose).
            std::string stats = campaign::stats_json(report.stats);
            const std::string needle = "{\n";
            stats.insert(needle.size(), "  \"wall_ms\": " +
                                            std::to_string(wall_ms) + ",\n");
            emit(stats_path, stats);
        }
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }

    if (!quiet) {
        const auto& s = report.stats;
        std::cerr << "campaign '" << report.name << "': " << s.cells_completed
                  << "/" << s.cells_selected << " cells (of "
                  << s.cells_total << " in the grid), cache " << s.cell_hits
                  << " hit / " << s.cell_misses << " miss";
        if (s.tests_hits || s.sim_hits || s.faults_hits || s.analysis_hits) {
            std::cerr << " (stage hits: " << s.tests_hits << " tests, "
                      << s.sim_hits << " sim, " << s.faults_hits << " faults";
            if (s.analysis_hits)
                std::cerr << ", " << s.analysis_hits << " analysis";
            std::cerr << ")";
        }
        if (s.store_corrupt)
            std::cerr << ", " << s.store_corrupt << " corrupt object(s)";
        std::cerr << ", " << wall_ms << " ms";
        if (s.stop != dlp::support::StopReason::None)
            std::cerr << ", stopped: "
                      << dlp::support::stop_reason_name(s.stop);
        std::cerr << "\n";
    }
    // Conventional interrupted-by-SIGINT status; the partial report above
    // is still valid (exact prefix of the uninterrupted run).
    if (report.stats.stop == support::StopReason::Cancelled) return 130;
    return 0;
}
