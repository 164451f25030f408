#include "obs/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "support/json_quote.h"

namespace dlp::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

struct SpanRecord {
    const char* name;
    std::int32_t parent;  ///< index in the same log, -1 = thread root
    std::int64_t start_ns;
    std::int64_t end_ns;  ///< 0 while open
    std::string note;
};

/// Per-thread span log.  Only the owning thread appends; the mutex exists
/// so snapshot readers can run concurrently with an active owner.
struct ThreadLog {
    int tid = 0;
    std::string thread_name;
    std::vector<SpanRecord> records;
    std::int32_t current = -1;  ///< innermost open span, -1 = none
    mutable std::mutex mu;
};

namespace {

struct Registry {
    std::mutex mu;
    // deques: registered metrics keep stable addresses for cached refs.
    std::deque<Counter> counters;
    std::deque<Gauge> gauges;
    std::vector<std::unique_ptr<ThreadLog>> logs;
    std::string trace_path;

    static Registry& instance() {
        static Registry r;
        return r;
    }
};

}  // namespace

ThreadLog* thread_log() {
    thread_local ThreadLog* tl = [] {
        Registry& r = Registry::instance();
        std::lock_guard<std::mutex> lock(r.mu);
        auto log = std::make_unique<ThreadLog>();
        log->tid = static_cast<int>(r.logs.size());
        ThreadLog* p = log.get();
        r.logs.push_back(std::move(log));
        return p;
    }();
    return tl;
}

std::int32_t open_span(ThreadLog* log, const char* name) {
    std::lock_guard<std::mutex> lock(log->mu);
    const auto index = static_cast<std::int32_t>(log->records.size());
    log->records.push_back({name, log->current, now_ns(), 0, {}});
    log->current = index;
    return index;
}

void close_span(ThreadLog* log, std::int32_t index) {
    std::lock_guard<std::mutex> lock(log->mu);
    // A reset() between open and close leaves a dangling index; ignore it.
    if (index < 0 || index >= static_cast<std::int32_t>(log->records.size()))
        return;
    SpanRecord& rec = log->records[static_cast<std::size_t>(index)];
    rec.end_ns = now_ns();
    log->current = rec.parent;
}

void annotate_span(ThreadLog* log, std::int32_t index, std::string_view text) {
    std::lock_guard<std::mutex> lock(log->mu);
    if (index < 0 || index >= static_cast<std::int32_t>(log->records.size()))
        return;
    SpanRecord& rec = log->records[static_cast<std::size_t>(index)];
    if (!rec.note.empty()) rec.note += "; ";
    rec.note += text;
}

}  // namespace detail

namespace {

using detail::Registry;
using detail::SpanRecord;
using detail::ThreadLog;

/// Captures the telemetry epoch; called once before main via EnvInit.
std::int64_t epoch_anchor() {
    static const std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Reads DLPROJ_TRACE / DLPROJ_TELEMETRY once at load time and registers
/// the exit flush, so any binary gets tracing from the environment alone.
struct EnvInit {
    EnvInit() {
        epoch_anchor();  // pin the epoch before any instrumentation runs
        Registry& r = Registry::instance();
        set_thread_name("main");
        if (const char* p = std::getenv("DLPROJ_TRACE"); p && *p) {
            r.trace_path = p;
            detail::g_enabled.store(true, std::memory_order_relaxed);
        }
        if (const char* e = std::getenv("DLPROJ_TELEMETRY");
            e && *e && *e != '0')
            detail::g_enabled.store(true, std::memory_order_relaxed);
        std::atexit([] { flush(); });
    }
};
EnvInit g_env_init;

}  // namespace

std::int64_t now_ns() { return epoch_anchor(); }

void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

const std::string& trace_path() { return Registry::instance().trace_path; }

Counter& counter(std::string_view name) {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Counter& c : r.counters)
        if (c.name() == name) return c;
    return r.counters.emplace_back(std::string(name));
}

Gauge& gauge(std::string_view name) {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Gauge& g : r.gauges)
        if (g.name() == name) return g;
    return r.gauges.emplace_back(std::string(name));
}

void annotate_current(std::string_view text) {
    if (!enabled()) return;
    ThreadLog* log = detail::thread_log();
    std::lock_guard<std::mutex> lock(log->mu);
    if (log->current >= 0) {
        SpanRecord& rec =
            log->records[static_cast<std::size_t>(log->current)];
        if (!rec.note.empty()) rec.note += "; ";
        rec.note += text;
    }
}

void set_thread_name(std::string name) {
    ThreadLog* log = detail::thread_log();
    std::lock_guard<std::mutex> lock(log->mu);
    log->thread_name = std::move(name);
}

std::vector<SpanInfo> spans_snapshot() {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> registry_lock(r.mu);
    const std::int64_t now = now_ns();
    std::vector<SpanInfo> out;
    for (const auto& log : r.logs) {
        std::lock_guard<std::mutex> log_lock(log->mu);
        std::vector<std::string> paths(log->records.size());
        for (std::size_t i = 0; i < log->records.size(); ++i) {
            const SpanRecord& rec = log->records[i];
            paths[i] = rec.parent < 0
                           ? std::string(rec.name)
                           : paths[static_cast<std::size_t>(rec.parent)] +
                                 "/" + rec.name;
            SpanInfo info;
            info.path = paths[i];
            info.name = rec.name;
            info.note = rec.note;
            info.thread = log->tid;
            info.start_ns = rec.start_ns;
            info.open = rec.end_ns == 0;
            info.dur_ns = (info.open ? now : rec.end_ns) - rec.start_ns;
            out.push_back(std::move(info));
        }
    }
    return out;
}

std::vector<std::pair<std::string, long long>> counters_snapshot() {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<std::pair<std::string, long long>> out;
    for (const Counter& c : r.counters) out.emplace_back(c.name(), c.value());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::string, double>> gauges_snapshot() {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<std::pair<std::string, double>> out;
    for (const Gauge& g : r.gauges) out.emplace_back(g.name(), g.value());
    std::sort(out.begin(), out.end());
    return out;
}

namespace {

std::string format_duration(std::int64_t ns) {
    char buf[32];
    if (ns >= 1'000'000'000)
        std::snprintf(buf, sizeof buf, "%.2f s",
                      static_cast<double>(ns) / 1e9);
    else if (ns >= 1'000'000)
        std::snprintf(buf, sizeof buf, "%.2f ms",
                      static_cast<double>(ns) / 1e6);
    else
        std::snprintf(buf, sizeof buf, "%.1f us",
                      static_cast<double>(ns) / 1e3);
    return buf;
}

}  // namespace

std::string summary_text() {
    // Merge spans across threads by path, then print the tree in
    // first-appearance order (a parent is always registered before its
    // children because its record is older within every log).
    struct Node {
        long long count = 0;
        std::int64_t total_ns = 0;
        bool open = false;
        std::vector<std::string> notes;
        std::vector<std::string> children;  ///< child paths, ordered
    };
    std::map<std::string, Node> nodes;
    std::vector<std::string> roots;
    for (const SpanInfo& s : spans_snapshot()) {
        auto [it, fresh] = nodes.try_emplace(s.path);
        Node& n = it->second;
        if (fresh) {
            const auto slash = s.path.rfind('/');
            if (slash == std::string::npos) {
                roots.push_back(s.path);
            } else {
                nodes[s.path.substr(0, slash)].children.push_back(s.path);
            }
        }
        ++n.count;
        n.total_ns += s.dur_ns;
        n.open |= s.open;
        if (!s.note.empty()) n.notes.push_back(s.note);
    }

    std::string out = "== telemetry summary ==\n";
    if (!nodes.empty()) out += "spans (calls, total wall):\n";
    const auto print_node = [&](const auto& self, const std::string& path,
                                int depth) -> void {
        const Node& n = nodes[path];
        const auto slash = path.rfind('/');
        const std::string name =
            slash == std::string::npos ? path : path.substr(slash + 1);
        char head[160];
        std::snprintf(head, sizeof head, "  %*s%-*s %8lld  %10s%s\n", depth * 2,
                      "", std::max(2, 36 - depth * 2), name.c_str(), n.count,
                      format_duration(n.total_ns).c_str(),
                      n.open ? "  (open)" : "");
        out += head;
        for (const std::string& note : n.notes)
            out += std::string(static_cast<std::size_t>(depth) * 2 + 6, ' ') +
                   "note: " + note + "\n";
        for (const std::string& child : n.children) self(self, child, depth + 1);
    };
    for (const std::string& root : roots) print_node(print_node, root, 0);

    const auto counters = counters_snapshot();
    if (!counters.empty()) out += "counters:\n";
    for (const auto& [name, value] : counters) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-38s %lld\n", name.c_str(),
                      value);
        out += line;
    }
    const auto gauges = gauges_snapshot();
    if (!gauges.empty()) out += "gauges:\n";
    for (const auto& [name, value] : gauges) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-38s %g\n", name.c_str(), value);
        out += line;
    }
    return out;
}

std::string trace_json() {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    const auto emit = [&](const std::string& event) {
        if (!first) out += ",";
        first = false;
        out += "\n";
        out += event;
    };

    {
        Registry& r = Registry::instance();
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto& log : r.logs) {
            std::lock_guard<std::mutex> log_lock(log->mu);
            if (log->thread_name.empty()) continue;
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                          "\"tid\":%d,\"args\":{\"name\":%s}}",
                          log->tid,
                          support::json_quote(log->thread_name).c_str());
            emit(buf);
        }
    }

    std::int64_t last_ns = 0;
    for (const SpanInfo& s : spans_snapshot()) {
        last_ns = std::max(last_ns, s.start_ns + s.dur_ns);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                      support::json_quote(s.name).c_str(),
                      static_cast<double>(s.start_ns) / 1e3,
                      static_cast<double>(s.dur_ns) / 1e3, s.thread);
        std::string event = buf;
        if (!s.note.empty())
            event +=
                ",\"args\":{\"note\":" + support::json_quote(s.note) + "}";
        event += "}";
        emit(event);
    }

    for (const auto& [name, value] : counters_snapshot()) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":%s,\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                      "\"tid\":0,\"args\":{\"value\":%lld}}",
                      support::json_quote(name).c_str(),
                      static_cast<double>(last_ns) / 1e3, value);
        emit(buf);
    }

    out += "\n]}\n";
    return out;
}

bool write_trace(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::string json = trace_json();
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

void flush() {
    const std::string& path = trace_path();
    if (path.empty()) return;
    if (!write_trace(path))
        std::fprintf(stderr, "[obs] failed to write trace to %s\n",
                     path.c_str());
}

void reset() {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Counter& c : r.counters)
        c.value_.store(0, std::memory_order_relaxed);
    for (Gauge& g : r.gauges)
        g.bits_.store(std::bit_cast<std::uint64_t>(0.0),
                      std::memory_order_relaxed);
    for (const auto& log : r.logs) {
        std::lock_guard<std::mutex> log_lock(log->mu);
        log->records.clear();
        log->current = -1;
    }
}

}  // namespace dlp::obs
