#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "obs/telemetry.h"
#include "support/env.h"

namespace dlp::service {

namespace {

/// Poll cadence for loops that must notice drain/deadline flags promptly
/// without busy-waiting.
constexpr int kAcceptPollMs = 50;
constexpr int kWatchdogPollMs = 20;
constexpr int kLingerSliceMs = 5;

}  // namespace

ServiceConfig config_from_env() {
    ServiceConfig cfg;
    cfg.socket_path = support::env_str("DLPROJ_SERVE_SOCKET");
    cfg.workers = static_cast<int>(
        support::env_int("DLPROJ_SERVE_WORKERS", cfg.workers, 1, 64));
    cfg.queue_max = static_cast<std::size_t>(support::env_int(
        "DLPROJ_SERVE_QUEUE_MAX", static_cast<long long>(cfg.queue_max), 1,
        4096));
    cfg.drain_ms = support::env_int("DLPROJ_SERVE_DRAIN_MS", cfg.drain_ms, 0,
                                    1ll << 40);
    // One knob, two guards: requests without a deadline get this one, and
    // requests asking for more are clamped to it.
    cfg.default_deadline_ms = support::env_int(
        "DLPROJ_SERVE_DEADLINE_MS", cfg.default_deadline_ms, 0, 1ll << 40);
    cfg.max_deadline_ms = cfg.default_deadline_ms;
    cfg.cache_dir = campaign::env_cache_dir();
    return cfg;
}

Service::Service(ServiceConfig config) : config_(std::move(config)) {
    if (config_.workers < 1) config_.workers = 1;
    if (config_.queue_max < 1) config_.queue_max = 1;
}

Service::~Service() { stop(); }

void Service::set_queue_gauge(std::size_t depth) {
    DLP_OBS_GAUGE(g_depth, "service.queue_depth");
    DLP_OBS_SET(g_depth, static_cast<double>(depth));
}

void Service::start() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (running_) return;
        running_ = true;
        draining_ = false;
        stop_workers_ = false;
        shutdown_requested_ = false;
    }
    // Heal the crash window of a SIGKILLed predecessor before any client
    // can race a lookup against a torn object.
    if (!config_.cache_dir.empty())
        recovery_ = campaign::recover_store(config_.cache_dir);
    listen_ = unix_listen(config_.socket_path, 64);
    acceptor_ = std::thread([this] { accept_loop(); });
    watchdog_ = std::thread([this] { watchdog_loop(); });
    workers_.reserve(static_cast<std::size_t>(config_.workers));
    for (int i = 0; i < config_.workers; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

void Service::stop() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!running_) return;
        draining_ = true;
    }
    shutdown_cv_.notify_all();
    if (acceptor_.joinable()) acceptor_.join();
    listen_.reset();

    // Shed the queued backlog: those clients never started, they can
    // retry against the next incarnation.
    std::deque<Fd> backlog;
    {
        std::lock_guard<std::mutex> lock(mu_);
        backlog.swap(queue_);
        set_queue_gauge(0);
    }
    for (Fd& fd : backlog) shed(fd.get(), "", "draining");
    backlog.clear();

    // Give in-flight runs their grace, then trip every cancel token: the
    // per-stage store commits mean a cancelled run still checkpoints.
    {
        std::unique_lock<std::mutex> lock(mu_);
        idle_cv_.wait_for(lock, std::chrono::milliseconds(config_.drain_ms),
                          [this] { return in_flight_ == 0; });
        for (auto& [id, run] : inflight_runs_) run.cancel.request();
        stop_workers_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    if (watchdog_.joinable()) watchdog_.join();
    if (!config_.socket_path.empty()) ::unlink(config_.socket_path.c_str());
    {
        std::lock_guard<std::mutex> lock(mu_);
        running_ = false;
    }
    shutdown_cv_.notify_all();
}

bool Service::running() const {
    std::lock_guard<std::mutex> lock(mu_);
    return running_;
}

ServiceStats Service::stats() const {
    ServiceStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.deadline_cancelled = deadline_cancelled_.load(std::memory_order_relaxed);
    s.replays = replays_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
    s.in_flight = in_flight_;
    s.draining = draining_;
    return s;
}

void Service::request_shutdown() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
}

bool Service::wait_shutdown_requested() {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait(lock, [this] {
        return shutdown_requested_ || draining_ || !running_;
    });
    return shutdown_requested_;
}

// ---- admission ------------------------------------------------------------

void Service::shed(int fd, const std::string& id, std::string_view why) {
    DLP_OBS_COUNTER(c_shed, "service.shed");
    DLP_OBS_ADD(c_shed, 1);
    shed_.fetch_add(1, std::memory_order_relaxed);
    try {
        // A short timeout: the reply is one small frame; a client too
        // stalled to take it was not going to honor retry-after anyway.
        write_frame(fd, result_shed_json(id, config_.retry_after_ms, why),
                    std::min(config_.io_timeout_ms, 1000));
    } catch (const WireError&) {
        // The peer is gone; shedding it is a no-op.
    }
}

void Service::accept_loop() {
    obs::set_thread_name("svc-accept");
    while (true) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (draining_) return;
        }
        Fd conn = accept_one(listen_.get(), kAcceptPollMs);
        if (!conn.valid()) continue;
        bool admitted = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!draining_ && queue_.size() < config_.queue_max) {
                queue_.push_back(std::move(conn));
                set_queue_gauge(queue_.size());
                admitted = true;
            }
        }
        if (admitted) {
            DLP_OBS_COUNTER(c_acc, "service.accepted");
            DLP_OBS_ADD(c_acc, 1);
            accepted_.fetch_add(1, std::memory_order_relaxed);
            work_cv_.notify_one();
        } else {
            // Queue full or draining: shed before reading the payload —
            // backpressure must stay cheap under overload.
            shed(conn.get(), "", "overloaded");
        }
    }
}

// ---- execution ------------------------------------------------------------

void Service::worker_loop() {
    obs::set_thread_name("svc-worker");
    while (true) {
        Fd conn;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_cv_.wait(lock, [this] {
                return stop_workers_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (stop_workers_) return;
                continue;
            }
            conn = std::move(queue_.front());
            queue_.pop_front();
            set_queue_gauge(queue_.size());
            ++in_flight_;
        }
        handle_connection(std::move(conn));
        {
            std::lock_guard<std::mutex> lock(mu_);
            --in_flight_;
        }
        idle_cv_.notify_all();
    }
}

void Service::watchdog_loop() {
    obs::set_thread_name("svc-watchdog");
    while (true) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stop_workers_) return;
            for (auto& [id, run] : inflight_runs_) {
                if (run.fired || !run.deadline.expired()) continue;
                // The budget's own cooperative checks normally stop the
                // run first; the watchdog is the backstop for stretches
                // between check points.
                run.cancel.request();
                run.fired = true;
                DLP_OBS_COUNTER(c_dl, "service.deadline_cancelled");
                DLP_OBS_ADD(c_dl, 1);
                deadline_cancelled_.fetch_add(1, std::memory_order_relaxed);
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kWatchdogPollMs));
    }
}

void Service::send_result(int fd, const std::string& payload) {
    // Count before the write so a client that reads this reply and
    // immediately asks for stats sees itself included.
    DLP_OBS_COUNTER(c_done, "service.completed");
    DLP_OBS_ADD(c_done, 1);
    completed_.fetch_add(1, std::memory_order_relaxed);
    try {
        write_frame(fd, payload, config_.io_timeout_ms);
    } catch (const WireError&) {
        // The client vanished between request and reply.  The work (and
        // its store commits) stands; an idempotent retry replays it.
    }
}

std::string Service::stats_body() const {
    const ServiceStats s = stats();
    Json doc = Json::object();
    doc.set("accepted", Json::number(s.accepted));
    doc.set("completed", Json::number(s.completed));
    doc.set("shed", Json::number(s.shed));
    doc.set("errors", Json::number(s.errors));
    doc.set("deadline_cancelled", Json::number(s.deadline_cancelled));
    doc.set("replays", Json::number(s.replays));
    doc.set("queue_depth",
            Json::number(static_cast<long long>(s.queue_depth)));
    doc.set("in_flight", Json::number(static_cast<long long>(s.in_flight)));
    doc.set("draining", Json::boolean(s.draining));
    doc.set("workers", Json::number(static_cast<long long>(config_.workers)));
    doc.set("queue_max",
            Json::number(static_cast<long long>(config_.queue_max)));
    Json rec = Json::object();
    rec.set("intents", Json::number(static_cast<long long>(recovery_.intents)));
    rec.set("unpaired",
            Json::number(static_cast<long long>(recovery_.unpaired)));
    rec.set("verified",
            Json::number(static_cast<long long>(recovery_.verified)));
    rec.set("quarantined",
            Json::number(static_cast<long long>(recovery_.quarantined)));
    rec.set("stale_tmps",
            Json::number(static_cast<long long>(recovery_.stale_tmps)));
    doc.set("recovery", std::move(rec));
    return write_json(doc);
}

void Service::handle_connection(Fd conn) {
    std::string payload;
    try {
        if (!read_frame(conn.get(), payload, config_.io_timeout_ms))
            return;  // clean close without a request
    } catch (const WireError&) {
        // Timeout, truncation, oversize length: drop the connection — the
        // protocol's one-request-per-connection shape makes this safe.
        DLP_OBS_COUNTER(c_err, "service.errors");
        DLP_OBS_ADD(c_err, 1);
        errors_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Request request;
    try {
        request = parse_request(payload);
    } catch (const ProtocolError& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        send_result(conn.get(), result_error_json("", e.what()));
        return;
    }
    switch (request.op) {
        case Op::Ping:
            run_linger(request, conn.get());
            return;
        case Op::Stats:
            send_result(conn.get(),
                        result_ok_json(request.id, stats_body(), ""));
            return;
        case Op::Shutdown:
            send_result(conn.get(),
                        result_ok_json(request.id, "{\"stopping\":true}", ""));
            request_shutdown();
            return;
        case Op::Project:
        case Op::Campaign:
            execute_run(request, conn.get());
            return;
    }
}

namespace {

support::Deadline make_deadline(const Request& request,
                                const ServiceConfig& cfg) {
    long long ms = request.deadline_ms;
    if (ms <= 0) ms = cfg.default_deadline_ms;
    if (cfg.max_deadline_ms > 0)
        ms = ms > 0 ? std::min(ms, cfg.max_deadline_ms) : cfg.max_deadline_ms;
    return ms > 0 ? support::Deadline::after_ms(ms) : support::Deadline();
}

}  // namespace

void Service::run_linger(const Request& request, int fd) {
    // Diagnostic op: occupy this worker for linger_ms under the normal
    // budget/watchdog regime.  The soak and overload tests use it to
    // create precisely-shaped load.
    support::RunBudget budget;
    budget.deadline = make_deadline(request, config_);
    std::uint64_t run_id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        run_id = ++next_run_id_;
        inflight_runs_[run_id] = {budget.cancel, budget.deadline, false};
    }
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(request.linger_ms);
    support::StopReason stop = support::StopReason::None;
    while (std::chrono::steady_clock::now() < until) {
        stop = budget.check();
        if (stop != support::StopReason::None) break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kLingerSliceMs));
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_runs_.erase(run_id);
    }
    if (stop == support::StopReason::None)
        send_result(fd, result_ok_json(request.id, "{\"pong\":true}", ""));
    else
        send_result(fd, result_cancelled_json(
                            request.id, support::stop_reason_name(stop),
                            "{\"pong\":false}", ""));
}

void Service::execute_run(const Request& request, int fd) {
    // Idempotency: a completed response replays verbatim; a key still
    // executing sheds the duplicate (retrying it would double-execute).
    const std::string& key = request.idempotency_key;
    if (!key.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        if (const auto it = idem_done_.find(key); it != idem_done_.end()) {
            DLP_OBS_COUNTER(c_rep, "service.replays");
            DLP_OBS_ADD(c_rep, 1);
            replays_.fetch_add(1, std::memory_order_relaxed);
            send_result(fd, it->second);
            return;
        }
        if (!idem_running_.insert(key).second) {
            shed_.fetch_add(1, std::memory_order_relaxed);
            try {
                write_frame(fd,
                            result_shed_json(request.id,
                                             config_.retry_after_ms,
                                             "duplicate in flight"),
                            config_.io_timeout_ms);
            } catch (const WireError&) {
            }
            return;
        }
    }

    support::RunBudget budget;
    budget.deadline = make_deadline(request, config_);
    std::uint64_t run_id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        run_id = ++next_run_id_;
        inflight_runs_[run_id] = {budget.cancel, budget.deadline, false};
    }

    std::string response;
    // Set when a progress write fails: the client is gone, so the run was
    // cancelled *because of the disconnect* — its "cancelled" response
    // must not enter the replay cache, or the client's retry (the whole
    // point of its idempotency key) would replay the failure instead of
    // re-executing.
    auto broken = std::make_shared<bool>(false);
    bool computed_cell = false;
    try {
        campaign::CampaignSpec spec;
        if (request.op == Op::Campaign) {
            spec = campaign::parse_campaign_spec(request.spec);
        } else {
            spec.name = "project";
            spec.circuits = {request.circuit};
            spec.rules = {request.rules};
            spec.seeds = {request.seed};
            if (request.ndetect >= 1)
                campaign::set_grid_axis(spec, "ndetect",
                                        std::to_string(request.ndetect));
            if (request.analysis)
                campaign::set_grid_axis(spec, "analysis", "on");
            if (!request.defect_stats.empty())
                campaign::set_grid_axis(spec, "defect_stats",
                                        request.defect_stats);
        }
        if (request.max_vectors >= 0) spec.max_vectors = request.max_vectors;

        campaign::CampaignOptions opt;
        opt.cache_dir = config_.cache_dir;
        opt.use_cache = !config_.cache_dir.empty();
        opt.budget = budget;
        opt.parallel.threads =
            request.threads > 0 ? request.threads : config_.cell_threads;
        if (request.progress) {
            // Stream cell-boundary progress.  A failed write means the
            // client is gone: cancel the run rather than compute for
            // nobody (the per-stage store commits are already durable).
            auto cancel = budget.cancel;
            const std::string id = request.id;
            const int timeout = config_.io_timeout_ms;
            opt.progress = [fd, cancel, broken, id, timeout](
                               std::string_view stage, std::size_t done,
                               std::size_t total) mutable {
                if (*broken || stage != "campaign") return;
                try {
                    write_frame(fd, progress_json(id, stage, done, total),
                                timeout);
                } catch (const WireError&) {
                    *broken = true;
                    cancel.request();
                }
            };
        }

        const campaign::CampaignReport report = campaign::run_campaign(spec, opt);
        computed_cell = report.stats.cell_misses > 0;
        const std::string body = campaign::report_json(report);
        const std::string stats = campaign::stats_json(report.stats);
        if (report.stats.stop == support::StopReason::None)
            response = result_ok_json(request.id, body, stats);
        else
            response = result_cancelled_json(
                request.id, support::stop_reason_name(report.stats.stop),
                body, stats);
    } catch (const std::exception& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        response = result_error_json(request.id, e.what());
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_runs_.erase(run_id);
        if (!key.empty()) {
            idem_running_.erase(key);
        }
        if (!key.empty() && !*broken) {
            // Bounded FIFO replay cache: the oldest response falls out.
            if (idem_done_.size() >= config_.idempotency_capacity &&
                !idem_order_.empty()) {
                idem_done_.erase(idem_order_.front());
                idem_order_.pop_front();
            }
            if (idem_done_.emplace(key, response).second)
                idem_order_.push_back(key);
        }
    }
    send_result(fd, response);
#ifdef __GLIBC__
    // A computed cell leaves megabytes of freed transients (fault lists,
    // simulator scratch, traces) in this thread's malloc arena, which glibc
    // keeps mapped; under a steady mix of cold requests the retained pages
    // pile up across arenas.  Hand them back once the reply is out.  Warm
    // replies allocate little and skip the trim.
    if (computed_cell) malloc_trim(0);
#endif
}

}  // namespace dlp::service
