// dlproj_client: command-line client for the campaign projection service
// (dlproj_served).  Wraps service::call_service — retries with backoff on
// transport faults and shed replies, carries an idempotency key so a
// retry never re-runs work the server already finished.
//
//   dlproj_client [options] ping
//   dlproj_client [options] stats
//   dlproj_client [options] shutdown
//   dlproj_client [options] campaign <spec.campaign>
//   dlproj_client [options] project <circuit> <rules>
//
//   --socket=PATH          service socket (default: $DLPROJ_SERVE_SOCKET)
//   --timeout-ms=N         request deadline (envelope deadline_ms)
//   --io-timeout-ms=N      per-frame read/write bound (default 30000)
//   --retries=N            total attempts incl. the first (default 5)
//   --idempotency-key=K    explicit key (default: derived per call)
//   --threads=N            worker threads inside the run
//   --max-vectors=N        per-cell vector budget override
//   --seed=N               project op: ATPG seed (default 1)
//   --ndetect=N            project op: n-detection target 1..64
//                          (default 1 = classic single detection)
//   --analysis             project op: run the static untestability
//                          analysis for the cell
//   --defect-stats=DESC    project op: defect-statistics backend
//                          ("poisson" | "negbin:A" | "hier[:...]";
//                          default poisson)
//   --linger-ms=N          ping diagnostic: hold the worker N ms
//   --no-retry-shed        report shed to the caller instead of retrying
//   --quiet                suppress stderr progress lines
//
// The result body JSON goes to stdout.  Exit status: 0 ok, 1 cancelled or
// server-side error, 2 usage, 3 shed (final), 4 unreachable.
#include <climits>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "service/client.h"
#include "support/parse.h"

namespace {

int usage(const char* argv0) {
    std::cerr
        << "usage: " << argv0
        << " [--socket=PATH] [--timeout-ms=N] [--io-timeout-ms=N]"
           " [--retries=N] [--idempotency-key=K]"
           " [--threads=N] [--max-vectors=N] [--seed=N] [--ndetect=N]"
           " [--analysis] [--defect-stats=DESC] [--linger-ms=N]"
           " [--no-retry-shed] [--quiet]"
           " ping|stats|shutdown|campaign <spec>|project <circuit> <rules>\n";
    return 2;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace dlp;

    service::ClientOptions options;
    if (const char* sock = std::getenv("DLPROJ_SERVE_SOCKET"))
        options.socket_path = sock;
    service::Request request;
    std::vector<std::string> positional;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char* flag) {
            return arg.substr(std::strlen(flag));
        };
        // Request fields take the ranges the server's protocol accepts.
        constexpr long long kMaxMs = 1ll << 40;
        const auto number = [&](const char* flag, long long min,
                                long long max) {
            return support::parse_int(value(flag), min, max);
        };
        try {
            if (arg.rfind("--socket=", 0) == 0)
                options.socket_path = value("--socket=");
            else if (arg.rfind("--timeout-ms=", 0) == 0)
                request.deadline_ms = number("--timeout-ms=", 0, kMaxMs);
            else if (arg.rfind("--io-timeout-ms=", 0) == 0)
                options.io_timeout_ms =
                    static_cast<int>(number("--io-timeout-ms=", 1, INT_MAX));
            else if (arg.rfind("--retries=", 0) == 0)
                options.max_attempts =
                    static_cast<int>(number("--retries=", 0, INT_MAX));
            else if (arg.rfind("--idempotency-key=", 0) == 0)
                request.idempotency_key = value("--idempotency-key=");
            else if (arg.rfind("--threads=", 0) == 0)
                request.threads =
                    static_cast<int>(number("--threads=", 0, 256));
            else if (arg.rfind("--max-vectors=", 0) == 0)
                request.max_vectors = number("--max-vectors=", -1, 1ll << 40);
            else if (arg.rfind("--seed=", 0) == 0)
                request.seed = static_cast<std::uint64_t>(
                    number("--seed=", 0, INT64_MAX >> 12));
            else if (arg.rfind("--ndetect=", 0) == 0)
                request.ndetect = static_cast<int>(number("--ndetect=", 0, 64));
            else if (arg == "--analysis")
                request.analysis = true;
            else if (arg.rfind("--defect-stats=", 0) == 0)
                request.defect_stats = value("--defect-stats=");
            else if (arg.rfind("--linger-ms=", 0) == 0)
                request.linger_ms = number("--linger-ms=", 0, kMaxMs);
            else if (arg == "--no-retry-shed")
                options.retry_on_shed = false;
            else if (arg == "--quiet")
                quiet = true;
            else if (arg.rfind("--", 0) == 0) {
                std::cerr << argv[0] << ": unknown option " << arg << "\n";
                return usage(argv[0]);
            } else
                positional.push_back(arg);
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": bad value in " << arg << ": "
                      << e.what() << "\n";
            return usage(argv[0]);
        }
    }
    if (positional.empty()) return usage(argv[0]);
    if (options.socket_path.empty()) {
        std::cerr << argv[0]
                  << ": no socket path (--socket= or DLPROJ_SERVE_SOCKET)\n";
        return usage(argv[0]);
    }

    const std::string& op = positional[0];
    try {
        if (op == "ping" && positional.size() == 1) {
            request.op = service::Op::Ping;
        } else if (op == "stats" && positional.size() == 1) {
            request.op = service::Op::Stats;
        } else if (op == "shutdown" && positional.size() == 1) {
            request.op = service::Op::Shutdown;
        } else if (op == "campaign" && positional.size() == 2) {
            request.op = service::Op::Campaign;
            request.spec = slurp(positional[1]);
        } else if (op == "project" && positional.size() == 3) {
            request.op = service::Op::Project;
            request.circuit = positional[1];
            request.rules = positional[2];
        } else {
            std::cerr << argv[0] << ": bad operation/arity\n";
            return usage(argv[0]);
        }
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }
    request.progress = !quiet;
    if (!quiet)
        options.on_progress = [](const std::string& stage, std::size_t done,
                                 std::size_t total) {
            std::cerr << "progress: " << stage << " " << done << "/" << total
                      << "\n";
        };

    service::CallResult result;
    try {
        result = service::call_service(request, options);
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }

    if (!result.body.empty()) std::cout << result.body << "\n";
    if (!quiet && !result.stats.empty())
        std::cerr << "stats: " << result.stats << "\n";
    if (result.status == "ok") {
        if (!quiet && result.attempts > 1)
            std::cerr << argv[0] << ": ok after " << result.attempts
                      << " attempt(s)\n";
        return 0;
    }
    if (result.status == "cancelled") {
        std::cerr << argv[0] << ": cancelled (" << result.stop << ")\n";
        return 1;
    }
    if (result.status == "shed") {
        std::cerr << argv[0] << ": shed (retry after "
                  << result.retry_after_ms << " ms): " << result.error
                  << "\n";
        return 3;
    }
    if (result.status == "unreachable") {
        std::cerr << argv[0] << ": unreachable after " << result.attempts
                  << " attempt(s): " << result.error << "\n";
        return 4;
    }
    std::cerr << argv[0] << ": error: " << result.error << "\n";
    return 1;
}
