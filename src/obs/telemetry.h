// Lightweight, thread-safe telemetry for the experiment pipeline: named
// counters and gauges, scoped monotonic-clock spans with parent/child
// nesting, and two sinks — a human-readable end-of-run summary tree
// (summary_text) and a Chrome trace_event JSON file (chrome://tracing or
// https://ui.perfetto.dev) written at process exit when DLPROJ_TRACE=<path>
// is set.
//
// Enablement:
//   * runtime: DLPROJ_TELEMETRY=1 turns collection on; DLPROJ_TRACE=<path>
//     turns collection on AND writes the trace file at exit.  set_enabled()
//     overrides either programmatically (benches, tests).
//
// Cost contract: when disabled at runtime the hot path is one relaxed
// atomic load and a predicted branch — no allocation, no lock, no clock
// read.  Instrumentation sites sit at unit boundaries (a 64-vector block, a
// parallel chunk, an ATPG target), never inside per-fault inner loops.
//
// Determinism contract: counter and gauge values produced by the
// deterministic layers (both fault simulators, ATPG) count the same unit
// boundaries the parallel engine's determinism contract protects, so they
// are bit-identical for any worker count.  Timing fields (span durations,
// pool idle time) and the engine's own diagnostics (parallel.steals,
// parallel.chunks) are inherently run-dependent and excluded.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dlp::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
struct ThreadLog;
ThreadLog* thread_log();
std::int32_t open_span(ThreadLog* log, const char* name);
void close_span(ThreadLog* log, std::int32_t index);
void annotate_span(ThreadLog* log, std::int32_t index, std::string_view text);
}  // namespace detail

/// True while metric collection is on.  Inline relaxed load: this is the
/// whole cost of a disabled instrumentation site.
inline bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns collection on/off for the whole process.  Safe to call from any
/// thread; sites already past their enabled() check finish their record.
void set_enabled(bool on);

/// Nanoseconds since the process's telemetry epoch (monotonic clock).
std::int64_t now_ns();

/// The trace output path configured via DLPROJ_TRACE ("" when unset).
const std::string& trace_path();

/// A named monotonic counter.  add() is lock-free and thread-safe; the
/// final value is the order-independent sum of all adds.
class Counter {
public:
    /// Use obs::counter(name) instead; public only so the registry can
    /// construct in place.
    explicit Counter(std::string name) : name_(std::move(name)) {}

    /// No-op (one relaxed load) when collection is disabled.
    void add(long long n = 1) {
        if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
    }
    long long value() const { return value_.load(std::memory_order_relaxed); }
    const std::string& name() const { return name_; }

    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

private:
    friend void reset();
    std::string name_;
    std::atomic<long long> value_{0};
};

/// A named last-value-wins gauge (e.g. faults remaining, worker count).
class Gauge {
public:
    /// Use obs::gauge(name) instead; public only for in-place construction.
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    void set(double v) {
        if (enabled())
            bits_.store(std::bit_cast<std::uint64_t>(v),
                        std::memory_order_relaxed);
    }
    double value() const {
        return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
    }
    const std::string& name() const { return name_; }

    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

private:
    friend void reset();
    std::string name_;
    std::atomic<std::uint64_t> bits_{
        std::bit_cast<std::uint64_t>(0.0)};
};

/// Returns the process-wide counter/gauge registered under `name`, creating
/// it on first use.  References stay valid for the process lifetime.  The
/// lookup takes the registry mutex — resolve once (function-local static /
/// DLP_OBS_COUNTER) and reuse the reference; add()/set() never lock.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);

/// RAII scoped span: records [construction, destruction) on the calling
/// thread's log, nested under the thread's innermost open span.  `name`
/// must have static storage duration (pass a string literal).  Spans on
/// different threads are independent (per-thread parent chains); a span
/// must be closed on the thread that opened it, which RAII guarantees.
/// Construction when disabled is a no-op and the span stays inert even if
/// collection is enabled later.
class Span {
public:
    explicit Span(const char* name) {
        if (enabled()) {
            log_ = detail::thread_log();
            index_ = detail::open_span(log_, name);
        }
    }
    ~Span() {
        if (log_) detail::close_span(log_, index_);
    }

    /// Attaches free-form text to the span (shown in both sinks).  Multiple
    /// annotations concatenate with "; ".
    void annotate(std::string_view text) {
        if (log_) detail::annotate_span(log_, index_, text);
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    detail::ThreadLog* log_ = nullptr;
    std::int32_t index_ = -1;
};

/// Annotates the calling thread's innermost open span (no-op when disabled
/// or when no span is open).  Used for Interruption records: a budget stop
/// annotates the stage span it fired inside.
void annotate_current(std::string_view text);

/// Names the calling thread in the trace sink ("main", "pool-3", ...).
/// Cheap and callable regardless of enablement; call once per thread.
void set_thread_name(std::string name);

/// One finished (or still-open) span as seen by a snapshot.
struct SpanInfo {
    std::string path;  ///< "/"-joined name chain from the thread's root
    std::string name;
    std::string note;     ///< annotations, "" if none
    int thread = 0;       ///< telemetry thread id (trace "tid")
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    bool open = false;  ///< still running when the snapshot was taken
};

// ---- sinks & snapshots ---------------------------------------------------
// Snapshots are safe to take at any time but are meant for quiescent
// moments (end of run): spans still open are reported with `open = true`
// and a duration up to "now".

std::vector<SpanInfo> spans_snapshot();
std::vector<std::pair<std::string, long long>> counters_snapshot();
std::vector<std::pair<std::string, double>> gauges_snapshot();

/// Human-readable summary: the span tree (call counts + total wall time,
/// merged across threads by path) followed by counters and gauges.
std::string summary_text();

/// The Chrome trace_event JSON document: one complete ("X") event per span
/// on its thread's track, thread-name metadata, and a final counter ("C")
/// sample per counter.  Load in chrome://tracing or ui.perfetto.dev.
std::string trace_json();

/// Writes trace_json() to `path`; false on I/O failure.
bool write_trace(const std::string& path);

/// End-of-run hook (also registered via atexit): writes the trace to the
/// DLPROJ_TRACE path if one is configured.
void flush();

/// Zeroes all counters/gauges and clears all span logs (registered names
/// and thread logs survive, so cached Counter&/Gauge& references stay
/// valid).  For tests and benches; do not call while spans are open.
void reset();

}  // namespace dlp::obs

// ---- instrumentation macros -----------------------------------------------
// Instrumented layers use these macros.  DLP_OBS_COUNTER / DLP_OBS_GAUGE
// declare a function-local static reference so the registry lookup happens
// once per site, not per hit.

// `var` is deliberately a bare declarator name in these macros
// (a parenthesized declarator would change the declaration).
// NOLINTBEGIN(bugprone-macro-parentheses)
#define DLP_OBS_SPAN(var, name) ::dlp::obs::Span var{name}
#define DLP_OBS_SPAN_NOTE(var, text) (var).annotate(text)
#define DLP_OBS_COUNTER(var, name) \
    static ::dlp::obs::Counter& var = ::dlp::obs::counter(name)
#define DLP_OBS_ADD(var, n) (var).add(n)
#define DLP_OBS_GAUGE(var, name) \
    static ::dlp::obs::Gauge& var = ::dlp::obs::gauge(name)
#define DLP_OBS_SET(var, v) (var).set(v)
#define DLP_OBS_ANNOTATE(text) ::dlp::obs::annotate_current(text)
// NOLINTEND(bugprone-macro-parentheses)
