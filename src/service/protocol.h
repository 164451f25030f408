// The campaign projection service wire protocol.
//
// Transport: a stream of frames over a local (unix-domain) socket.  Each
// frame is a 4-byte big-endian payload length followed by that many bytes
// of UTF-8 JSON.  A connection carries exactly one request: the client
// sends one request frame, the server replies with zero or more progress
// event frames followed by exactly one result frame, then closes.  One
// request per connection keeps request framing trivially recoverable
// under fault injection — a torn connection can only ever lose one
// request, and idempotency keys make the retry safe.
//
// Request envelope (all fields optional unless noted):
//   op              (required) ping | stats | project | campaign | shutdown
//   id              client-chosen request id, echoed on every reply frame
//   idempotency_key retries with the same key replay the stored response
//                   instead of re-executing
//   deadline_ms     per-request wall-clock budget from the moment of
//                   admission; the watchdog cancels the run past it
//   max_vectors     per-cell vector budget override (-1 = spec's own)
//   threads         worker threads inside the run (0 = server default)
//   progress        true: stream progress event frames
//   linger_ms       diagnostic: hold the worker this long before replying
//                   (cancellable; used by the soak/overload harnesses)
//   spec            campaign op: inline campaign spec text
//   circuit, rules  project op: grid names or file paths (resolved by
//                   campaign::resolve_circuit / resolve_rules)
//   seed            project op: ATPG seed (default 1)
//   ndetect         project op: n-detection target in [1, 64] (0/absent =
//                   classic single detection); campaign specs carry their
//                   own [grid] ndetect axis instead
//   analysis        project op: true = run the static untestability
//                   analysis for the cell (default false); campaign specs
//                   carry their own [grid] analysis axis instead
//   defect_stats    project op: defect-statistics backend descriptor
//                   ("poisson" | "negbin:A" | "hier[:...]"; see
//                   model/defect_stats_model.h); absent = Poisson.
//                   Campaign specs carry their own [grid] defect_stats
//                   axis instead
//
// Reply frames:
//   {"event":"progress","id":...,"stage":...,"done":N,"total":N}
//   {"event":"result","id":...,"status":"ok"|"cancelled"|"shed"|"error",
//    "stop":<reason>,          (cancelled: why the run stopped)
//    "retry_after_ms":N,       (shed: backpressure hint)
//    "error":"...",            (error: diagnostic)
//    "body":{...},             (ok/cancelled: campaign report document)
//    "stats":{...}}            (ok/cancelled: cache/run accounting)
//
// Overload semantics: a server whose admission queue is full (or which is
// draining) sheds the request *before* reading its payload body with
// status "shed" and a retry_after_ms hint; clients back off (with jitter)
// at least that long before retrying.  Shedding is cheap by design — the
// reply is a single small frame and the connection closes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/json.h"

namespace dlp::service {

/// Frame length prefix: 4-byte big-endian.  kMaxFrame bounds a single
/// payload; a peer announcing more is protocol-corrupt and the connection
/// is dropped (the length field is attacker-controlled input).
constexpr std::uint32_t kMaxFrame = 64u << 20;  // 64 MiB
constexpr std::size_t kFrameHeader = 4;

/// Renders the 4-byte length prefix for a payload of `n` bytes.
std::string encode_frame_header(std::uint32_t n);

/// Decodes a length prefix; throws std::runtime_error past kMaxFrame.
std::uint32_t decode_frame_header(const unsigned char header[kFrameHeader]);

class ProtocolError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

enum class Op : std::uint8_t { Ping, Stats, Project, Campaign, Shutdown };

std::string_view op_name(Op op);

struct Request {
    Op op = Op::Ping;
    std::string id;
    std::string idempotency_key;
    long long deadline_ms = 0;   ///< 0 = server default (possibly none)
    long long max_vectors = -1;  ///< <0 = keep the spec's value
    int threads = 0;
    bool progress = false;
    long long linger_ms = 0;
    std::string spec;     // campaign
    std::string circuit;  // project
    std::string rules;    // project
    std::uint64_t seed = 1;
    int ndetect = 0;  ///< project op target; 0 = classic (n = 1)
    /// project op: run the static untestability analysis (the flow's
    /// analyze() stage) for the cell; campaign specs carry their own
    /// [grid] analysis axis instead.
    bool analysis = false;
    /// project op: defect-statistics backend descriptor; "" = Poisson.
    /// Validated (parse_defect_stats) at parse time so a bad descriptor
    /// is rejected before admission.
    std::string defect_stats;
};

/// Parses a request payload; throws ProtocolError (bad JSON, unknown op,
/// missing required fields, out-of-range scalars).
Request parse_request(std::string_view payload);

/// Serializes a request envelope (the client side of parse_request).
std::string request_json(const Request& request);

// ---- reply builders (server side) ----------------------------------------

std::string progress_json(const std::string& id, std::string_view stage,
                          std::size_t done, std::size_t total);
/// `body` and `stats` are raw pre-rendered JSON documents ("" = omitted).
std::string result_ok_json(const std::string& id, const std::string& body,
                           const std::string& stats);
std::string result_cancelled_json(const std::string& id,
                                  std::string_view stop,
                                  const std::string& body,
                                  const std::string& stats);
std::string result_shed_json(const std::string& id, long long retry_after_ms,
                             std::string_view why);
std::string result_error_json(const std::string& id,
                              const std::string& message);

// ---- reply view (client side) ---------------------------------------------

struct Reply {
    std::string event;   ///< "progress" | "result"
    std::string id;
    // progress fields
    std::string stage;
    std::size_t done = 0;
    std::size_t total = 0;
    // result fields
    std::string status;  ///< ok | cancelled | shed | error
    std::string stop;
    long long retry_after_ms = 0;
    std::string error;
    std::string body;    ///< re-rendered report document ("" if absent)
    std::string stats;
    std::string raw;     ///< the verbatim frame payload (byte-exact checks)
};

/// Parses a reply frame; throws ProtocolError on malformed payloads.
Reply parse_reply(std::string_view payload);

}  // namespace dlp::service
