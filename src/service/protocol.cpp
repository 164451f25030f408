#include "service/protocol.h"

#include <limits>

#include "model/defect_stats_model.h"

namespace dlp::service {

std::string encode_frame_header(std::uint32_t n) {
    std::string h(kFrameHeader, '\0');
    h[0] = static_cast<char>((n >> 24) & 0xFF);
    h[1] = static_cast<char>((n >> 16) & 0xFF);
    h[2] = static_cast<char>((n >> 8) & 0xFF);
    h[3] = static_cast<char>(n & 0xFF);
    return h;
}

std::uint32_t decode_frame_header(const unsigned char header[kFrameHeader]) {
    const std::uint32_t n = (static_cast<std::uint32_t>(header[0]) << 24) |
                            (static_cast<std::uint32_t>(header[1]) << 16) |
                            (static_cast<std::uint32_t>(header[2]) << 8) |
                            static_cast<std::uint32_t>(header[3]);
    if (n > kMaxFrame)
        throw std::runtime_error("frame length " + std::to_string(n) +
                                 " exceeds the " + std::to_string(kMaxFrame) +
                                 "-byte cap");
    return n;
}

std::string_view op_name(Op op) {
    switch (op) {
        case Op::Ping: return "ping";
        case Op::Stats: return "stats";
        case Op::Project: return "project";
        case Op::Campaign: return "campaign";
        case Op::Shutdown: return "shutdown";
    }
    return "unknown";
}

namespace {

Op parse_op(const std::string& name) {
    if (name == "ping") return Op::Ping;
    if (name == "stats") return Op::Stats;
    if (name == "project") return Op::Project;
    if (name == "campaign") return Op::Campaign;
    if (name == "shutdown") return Op::Shutdown;
    throw ProtocolError("unknown op \"" + name + "\"");
}

long long require_range(const Json& doc, std::string_view key,
                        long long fallback, long long min, long long max) {
    const long long v = doc.int_or(key, fallback);
    if (v < min || v > max)
        throw ProtocolError(std::string(key) + " out of range [" +
                            std::to_string(min) + ", " + std::to_string(max) +
                            "]: " + std::to_string(v));
    return v;
}

}  // namespace

Request parse_request(std::string_view payload) {
    Json doc;
    try {
        doc = parse_json(payload);
    } catch (const JsonError& e) {
        throw ProtocolError(std::string("malformed request: ") + e.what());
    }
    if (doc.type() != Json::Type::Object)
        throw ProtocolError("request must be a JSON object");
    const Json* op = doc.get("op");
    if (op == nullptr || op->type() != Json::Type::String)
        throw ProtocolError("request is missing the \"op\" field");

    constexpr long long kMaxMs = 1ll << 40;  // ~35 years, overflow guard
    Request r;
    r.op = parse_op(op->as_string());
    r.id = doc.str_or("id", "");
    r.idempotency_key = doc.str_or("idempotency_key", "");
    r.deadline_ms = require_range(doc, "deadline_ms", 0, 0, kMaxMs);
    r.max_vectors =
        require_range(doc, "max_vectors", -1, -1, (1ll << 40));
    r.threads =
        static_cast<int>(require_range(doc, "threads", 0, 0, 256));
    r.progress = doc.bool_or("progress", false);
    r.linger_ms = require_range(doc, "linger_ms", 0, 0, kMaxMs);
    r.spec = doc.str_or("spec", "");
    r.circuit = doc.str_or("circuit", "");
    r.rules = doc.str_or("rules", "");
    r.seed = static_cast<std::uint64_t>(require_range(
        doc, "seed", 1, 0, std::numeric_limits<std::int64_t>::max() >> 12));
    r.ndetect = static_cast<int>(require_range(doc, "ndetect", 0, 0, 64));
    r.analysis = doc.bool_or("analysis", false);
    r.defect_stats = doc.str_or("defect_stats", "");
    if (!r.defect_stats.empty()) {
        try {
            model::parse_defect_stats(r.defect_stats);
        } catch (const std::invalid_argument& e) {
            throw ProtocolError(std::string("bad defect_stats: ") + e.what());
        }
    }

    if (r.op == Op::Campaign && r.spec.empty())
        throw ProtocolError("campaign request is missing \"spec\"");
    if (r.op == Op::Project && (r.circuit.empty() || r.rules.empty()))
        throw ProtocolError(
            "project request needs \"circuit\" and \"rules\"");
    return r;
}

std::string request_json(const Request& r) {
    Json doc = Json::object();
    doc.set("op", Json::string(std::string(op_name(r.op))));
    if (!r.id.empty()) doc.set("id", Json::string(r.id));
    if (!r.idempotency_key.empty())
        doc.set("idempotency_key", Json::string(r.idempotency_key));
    if (r.deadline_ms > 0) doc.set("deadline_ms", Json::number(r.deadline_ms));
    if (r.max_vectors >= 0)
        doc.set("max_vectors", Json::number(r.max_vectors));
    if (r.threads > 0)
        doc.set("threads", Json::number(static_cast<long long>(r.threads)));
    if (r.progress) doc.set("progress", Json::boolean(true));
    if (r.linger_ms > 0) doc.set("linger_ms", Json::number(r.linger_ms));
    if (!r.spec.empty()) doc.set("spec", Json::string(r.spec));
    if (!r.circuit.empty()) doc.set("circuit", Json::string(r.circuit));
    if (!r.rules.empty()) doc.set("rules", Json::string(r.rules));
    if (r.seed != 1)
        doc.set("seed",
                Json::number(static_cast<long long>(r.seed)));
    if (r.ndetect > 0)
        doc.set("ndetect", Json::number(static_cast<long long>(r.ndetect)));
    if (r.analysis) doc.set("analysis", Json::boolean(true));
    if (!r.defect_stats.empty())
        doc.set("defect_stats", Json::string(r.defect_stats));
    return write_json(doc);
}

// ---- reply builders -------------------------------------------------------
// Result frames embed the (potentially large) report documents as raw
// pre-rendered JSON rather than re-parsing them into the value model.

namespace {

std::string reply_head(std::string_view event, const std::string& id) {
    std::string out = "{\"event\":" + json_quote(event);
    out += ",\"id\":" + json_quote(id);
    return out;
}

void append_docs(std::string& out, const std::string& body,
                 const std::string& stats) {
    if (!body.empty()) out += ",\"body\":" + body;
    if (!stats.empty()) out += ",\"stats\":" + stats;
}

}  // namespace

std::string progress_json(const std::string& id, std::string_view stage,
                          std::size_t done, std::size_t total) {
    std::string out = reply_head("progress", id);
    out += ",\"stage\":" + json_quote(stage);
    out += ",\"done\":" + std::to_string(done);
    out += ",\"total\":" + std::to_string(total);
    out += "}";
    return out;
}

std::string result_ok_json(const std::string& id, const std::string& body,
                           const std::string& stats) {
    std::string out = reply_head("result", id);
    out += ",\"status\":\"ok\"";
    append_docs(out, body, stats);
    out += "}";
    return out;
}

std::string result_cancelled_json(const std::string& id,
                                  std::string_view stop,
                                  const std::string& body,
                                  const std::string& stats) {
    std::string out = reply_head("result", id);
    out += ",\"status\":\"cancelled\",\"stop\":" + json_quote(stop);
    append_docs(out, body, stats);
    out += "}";
    return out;
}

std::string result_shed_json(const std::string& id, long long retry_after_ms,
                             std::string_view why) {
    std::string out = reply_head("result", id);
    out += ",\"status\":\"shed\",\"retry_after_ms\":" +
           std::to_string(retry_after_ms);
    out += ",\"error\":" + json_quote(why);
    out += "}";
    return out;
}

std::string result_error_json(const std::string& id,
                              const std::string& message) {
    std::string out = reply_head("result", id);
    out += ",\"status\":\"error\",\"error\":" + json_quote(message);
    out += "}";
    return out;
}

Reply parse_reply(std::string_view payload) {
    Json doc;
    try {
        doc = parse_json(payload);
    } catch (const JsonError& e) {
        throw ProtocolError(std::string("malformed reply: ") + e.what());
    }
    if (doc.type() != Json::Type::Object)
        throw ProtocolError("reply must be a JSON object");
    Reply r;
    r.event = doc.str_or("event", "");
    if (r.event != "progress" && r.event != "result")
        throw ProtocolError("reply has no valid \"event\" field");
    r.id = doc.str_or("id", "");
    r.stage = doc.str_or("stage", "");
    r.done = static_cast<std::size_t>(doc.int_or("done", 0));
    r.total = static_cast<std::size_t>(doc.int_or("total", 0));
    r.status = doc.str_or("status", "");
    r.stop = doc.str_or("stop", "");
    r.retry_after_ms = doc.int_or("retry_after_ms", 0);
    r.error = doc.str_or("error", "");
    if (r.event == "result" && r.status.empty())
        throw ProtocolError("result reply is missing \"status\"");
    if (const Json* body = doc.get("body")) r.body = write_json(*body);
    if (const Json* stats = doc.get("stats")) r.stats = write_json(*stats);
    r.raw = std::string(payload);
    return r;
}

}  // namespace dlp::service
