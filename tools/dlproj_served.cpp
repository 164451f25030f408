// dlproj_served: the campaign projection service daemon.  Binds a unix
// socket, recovers the artifact store from any crashed predecessor, and
// serves projection/campaign requests until SIGINT/SIGTERM or a
// `shutdown` op — then drains gracefully (src/service/server.h).
//
//   dlproj_served [options]
//
//   --socket=PATH       listen socket (default: $DLPROJ_SERVE_SOCKET)
//   --workers=N         executor threads (default: $DLPROJ_SERVE_WORKERS)
//   --queue-max=N       admission-queue bound ($DLPROJ_SERVE_QUEUE_MAX)
//   --drain-ms=N        shutdown grace period ($DLPROJ_SERVE_DRAIN_MS)
//   --deadline-ms=N     max per-request deadline ($DLPROJ_SERVE_DEADLINE_MS)
//   --retry-after-ms=N  backpressure hint in shed replies
//   --cache-dir=PATH    artifact cache root (default: $DLPROJ_CACHE)
//   --threads=N         per-run worker threads (0 = library default)
//   --quiet             suppress startup/shutdown stderr lines
//
// Exit status: 0 clean shutdown, 2 usage or startup failure.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "service/server.h"
#include "support/env.h"
#include "support/parse.h"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--socket=PATH] [--workers=N] [--queue-max=N]"
                 " [--drain-ms=N] [--deadline-ms=N] [--retry-after-ms=N]"
                 " [--cache-dir=PATH] [--threads=N]"
                 " [--quiet]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace dlp;

    service::ServiceConfig config;
    try {
        config = service::config_from_env();
    } catch (const support::EnvError& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* flag) {
            return arg.substr(std::strlen(flag));
        };
        // The ranges of the matching DLPROJ_SERVE_* knobs.
        constexpr long long kMaxMs = 1ll << 40;
        const auto number = [&](const char* flag, long long min,
                                long long max) {
            return support::parse_int(value(flag), min, max);
        };
        try {
            if (arg.rfind("--socket=", 0) == 0)
                config.socket_path = value("--socket=");
            else if (arg.rfind("--workers=", 0) == 0)
                config.workers = static_cast<int>(number("--workers=", 1, 64));
            else if (arg.rfind("--queue-max=", 0) == 0)
                config.queue_max = static_cast<std::size_t>(
                    number("--queue-max=", 1, 4096));
            else if (arg.rfind("--drain-ms=", 0) == 0)
                config.drain_ms = number("--drain-ms=", 0, kMaxMs);
            else if (arg.rfind("--deadline-ms=", 0) == 0)
                config.max_deadline_ms = number("--deadline-ms=", 0, kMaxMs);
            else if (arg.rfind("--retry-after-ms=", 0) == 0)
                config.retry_after_ms = number("--retry-after-ms=", 0, kMaxMs);
            else if (arg.rfind("--cache-dir=", 0) == 0)
                config.cache_dir = value("--cache-dir=");
            else if (arg.rfind("--threads=", 0) == 0)
                config.cell_threads =
                    static_cast<int>(number("--threads=", 0, 256));
            else if (arg == "--quiet")
                quiet = true;
            else {
                std::cerr << argv[0] << ": unknown option " << arg << "\n";
                return usage(argv[0]);
            }
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": bad value in " << arg << ": "
                      << e.what() << "\n";
            return usage(argv[0]);
        }
    }
    if (config.socket_path.empty()) {
        std::cerr << argv[0]
                  << ": no socket path (--socket= or DLPROJ_SERVE_SOCKET)\n";
        return usage(argv[0]);
    }

    // Block SIGINT/SIGTERM in every thread (service threads inherit the
    // mask); a dedicated sigwait thread turns them into a graceful
    // shutdown request.  No async-signal-safety gymnastics required.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    service::Service service(config);
    try {
        service.start();
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    if (!quiet) {
        const auto& rec = service.recovery();
        if (rec.intents || rec.quarantined || rec.stale_tmps)
            std::cerr << argv[0] << ": store recovery: "
                      << campaign::recovery_summary(rec) << "\n";
        std::cerr << argv[0] << ": listening on " << config.socket_path
                  << " (" << config.workers << " workers, queue "
                  << config.queue_max << ")\n";
    }

    std::atomic<bool> sig_thread_done{false};
    std::thread sig_thread([&] {
        while (true) {
            int sig = 0;
            if (sigwait(&sigs, &sig) != 0) continue;
            if (sig_thread_done.load(std::memory_order_relaxed)) return;
            service.request_shutdown();
        }
    });

    service.wait_shutdown_requested();
    if (!quiet) std::cerr << argv[0] << ": draining...\n";
    service.stop();

    sig_thread_done.store(true, std::memory_order_relaxed);
    kill(getpid(), SIGTERM);  // blocked: consumed by sigwait, wakes the thread
    sig_thread.join();

    if (!quiet) {
        const service::ServiceStats s = service.stats();
        std::cerr << argv[0] << ": served " << s.completed << " request(s), "
                  << s.shed << " shed, " << s.errors << " error(s)\n";
    }
    return 0;
}
