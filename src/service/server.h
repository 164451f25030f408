// The campaign projection service: a long-lived daemon that accepts
// concurrent projection/campaign requests over the length-prefixed JSON
// protocol (protocol.h) and executes them on the campaign runner with a
// per-request RunBudget.
//
// Robustness model:
//   * Admission control — accepted connections wait in a bounded queue;
//     when it is full (or the service is draining) the request is shed
//     immediately with a retry_after_ms hint instead of queueing without
//     bound.  Shedding costs one small frame; the expensive work never
//     starts.
//   * Deadlines — every request runs under a RunBudget whose deadline
//     comes from its envelope (clamped by the server's max); a watchdog
//     thread additionally trips the cancel token of any run that outlives
//     its deadline, so even code paths between cooperative checks get
//     reined in.  Over-deadline requests answer "cancelled" with the
//     exact-prefix partial results the budget contract guarantees.
//   * Crash safety — artifact-store commits are journaled (store.h);
//     start() replays the journal and self-heals before accepting work,
//     so a SIGKILLed predecessor leaves at most a quarantined object and
//     a recomputation, never a wrong answer.
//   * Graceful drain — stop() stops accepting, sheds the queued backlog,
//     gives in-flight runs drain_ms to finish (their store commits are
//     per-stage, so even a cancelled run checkpoints), then trips their
//     cancel tokens and joins every thread.
//   * Slow/byzantine peers — all socket I/O is timeout-bounded (wire.h);
//     a progress write that fails cancels the run (the client is gone,
//     the work is wasted).
//
// Telemetry: service.accepted / shed / completed / errors /
// deadline_cancelled / replays counters and a service.queue_depth gauge.
//
// Thread-safety: start()/stop() are for the owning thread;
// stats()/request_shutdown()/wait_shutdown_requested() are safe from any
// thread.  The class is also used in-process by the soak tests — nothing
// here touches signals or global state beyond src/obs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/store.h"
#include "service/protocol.h"
#include "service/wire.h"
#include "support/cancel.h"

namespace dlp::service {

struct ServiceConfig {
    std::string socket_path;
    int workers = 2;              ///< executor threads
    std::size_t queue_max = 16;   ///< admission-queue bound
    long long default_deadline_ms = 0;  ///< for envelopes without one (0 = none)
    long long max_deadline_ms = 0;      ///< clamp on envelope deadlines (0 = none)
    long long retry_after_ms = 50;      ///< shed-reply backpressure hint
    int io_timeout_ms = 5000;     ///< per-frame read/write bound
    long long drain_ms = 2000;    ///< grace for in-flight work in stop()
    std::string cache_dir;        ///< shared artifact store ("" = none)
    int cell_threads = 0;         ///< per-run worker threads (0 = default)
    std::size_t idempotency_capacity = 256;  ///< replay-cache bound
};

/// Config defaults from the DLPROJ_SERVE_* environment knobs (hardened
/// parsing — garbage values throw support::EnvError) on top of DLPROJ_CACHE.
ServiceConfig config_from_env();

/// A stats() snapshot; mirrored by the `stats` op's reply body.
struct ServiceStats {
    long long accepted = 0;    ///< connections admitted to the queue
    long long completed = 0;   ///< requests answered (any status)
    long long shed = 0;        ///< requests rejected by admission control
    long long errors = 0;      ///< protocol/transport/request failures
    long long deadline_cancelled = 0;  ///< watchdog-tripped runs
    long long replays = 0;     ///< idempotency-cache replays
    std::size_t queue_depth = 0;
    std::size_t in_flight = 0;
    bool draining = false;
};

class Service {
public:
    explicit Service(ServiceConfig config);
    ~Service();  ///< stop()s if still running

    /// Recovers the artifact store, binds the socket, starts the
    /// acceptor/worker/watchdog threads.  Throws on bind failure.
    void start();

    /// Graceful drain; idempotent.  See the file comment.
    void stop();

    bool running() const;
    ServiceStats stats() const;
    const ServiceConfig& config() const { return config_; }
    /// The store-recovery outcome from start().
    const campaign::RecoveryReport& recovery() const { return recovery_; }

    /// `shutdown` op support: flags a shutdown request and wakes
    /// wait_shutdown_requested().  The daemon's main thread then calls
    /// stop() — a worker must not join itself.
    void request_shutdown();
    /// Blocks until request_shutdown() (returns true) or stop() (false).
    bool wait_shutdown_requested();

private:
    struct InFlight {
        support::CancelToken cancel;
        support::Deadline deadline;
        bool fired = false;  ///< watchdog already tripped this run
    };

    void accept_loop();
    void worker_loop();
    void watchdog_loop();
    void handle_connection(Fd conn);
    void execute_run(const Request& request, int fd);
    void run_linger(const Request& request, int fd);
    void shed(int fd, const std::string& id, std::string_view why);
    void send_result(int fd, const std::string& payload);
    std::string stats_body() const;
    void set_queue_gauge(std::size_t depth);

    ServiceConfig config_;
    campaign::RecoveryReport recovery_;

    Fd listen_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;      ///< workers: queue / stop
    std::condition_variable idle_cv_;      ///< stop(): drain progress
    std::condition_variable shutdown_cv_;  ///< `shutdown` op relay
    std::deque<Fd> queue_;
    bool running_ = false;
    bool draining_ = false;
    bool stop_workers_ = false;
    bool shutdown_requested_ = false;
    std::size_t in_flight_ = 0;
    std::uint64_t next_run_id_ = 0;
    std::map<std::uint64_t, InFlight> inflight_runs_;
    /// Idempotency replay cache: completed responses by key, FIFO-bounded,
    /// plus the keys currently executing (duplicates of those shed).
    std::map<std::string, std::string> idem_done_;
    std::deque<std::string> idem_order_;
    std::set<std::string> idem_running_;

    std::thread acceptor_;
    std::thread watchdog_;
    std::vector<std::thread> workers_;

    // Monotonic stats (lock-free reads for stats()).
    std::atomic<long long> accepted_{0};
    std::atomic<long long> completed_{0};
    std::atomic<long long> shed_{0};
    std::atomic<long long> errors_{0};
    std::atomic<long long> deadline_cancelled_{0};
    std::atomic<long long> replays_{0};
};

}  // namespace dlp::service
