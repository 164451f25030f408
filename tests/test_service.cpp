// Tests for the campaign projection service and the robustness plumbing
// underneath it: strict JSON / protocol parsing, hardened env knobs,
// backoff policy, the artifact store's write-ahead journal + crash
// recovery, the in-process daemon (admission control, deadlines,
// idempotent replay, graceful drain), a multi-client soak through the
// fault-injection proxy, and fork/exec crash tests that SIGKILL the real
// binaries and assert byte-identical resume.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "lint/checks.h"
#include "parallel/parallel_for.h"
#include "service/chaos.h"
#include "service/client.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/wire.h"
#include "support/backoff.h"
#include "support/cancel.h"
#include "support/env.h"

namespace dlp {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// A fresh per-test scratch directory under the gtest temp dir.  The pid
/// keeps paths (including socket paths) disjoint when ctest runs the
/// label-filtered entries of this binary in parallel.
std::string scratch_dir(const std::string& tag) {
    const std::string path = testing::TempDir() + "dlproj_service_" + tag +
                             "_" + std::to_string(::getpid());
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void spit(const std::string& path, const std::string& contents) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    ASSERT_TRUE(out.good()) << path;
}

/// Restores (or re-unsets) an environment variable on scope exit.
class EnvGuard {
public:
    EnvGuard(const char* name, const char* value) : name_(name) {
        const char* old = std::getenv(name);
        had_ = old != nullptr;
        if (old) old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvGuard() {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

private:
    const char* name_;
    std::string old_;
    bool had_ = false;
};

const char* kOneCellSpec =
    "[campaign]\n"
    "name = svc\n"
    "target_yield = 0.8\n"
    "[grid]\n"
    "circuits = c17\n"
    "rules = uniform\n"
    "seeds = 1\n";

const char* kSoakSpec =
    "[campaign]\n"
    "name = soak\n"
    "target_yield = 0.75\n"
    "[grid]\n"
    "circuits = c17, parity4\n"
    "rules = bridging, uniform\n"
    "seeds = 1\n";

const char* kCrashSpec =
    "[campaign]\n"
    "name = crash\n"
    "target_yield = 0.75\n"
    "[grid]\n"
    "circuits = c17, parity4\n"
    "rules = bridging, uniform\n"
    "seeds = 1, 2\n";

std::string reference_report(const char* spec_text) {
    campaign::CampaignOptions opt;
    opt.use_cache = false;
    return campaign::report_json(
        campaign::run_campaign(campaign::parse_campaign_spec(spec_text), opt));
}

// --- JSON ----------------------------------------------------------------

TEST(ServiceJson, RoundTripPreservesOrderAndIntegers) {
    const std::string text =
        "{\"b\":1,\"a\":[true,null,\"x\"],\"n\":9007199254740991,"
        "\"s\":\"q\\\"\\\\\\n\"}";
    const service::Json v = service::parse_json(text);
    EXPECT_EQ(service::write_json(v), text);
    EXPECT_EQ(v.int_or("n", 0), 9007199254740991LL);
    EXPECT_EQ(v.str_or("missing", "fb"), "fb");
    ASSERT_NE(v.get("a"), nullptr);
    EXPECT_EQ(v.get("a")->items().size(), 3u);
}

TEST(ServiceJson, DecodesSurrogatePairsToUtf8) {
    const service::Json v = service::parse_json("\"\\ud83d\\ude00\"");
    EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
}

TEST(ServiceJson, RejectsTrailingGarbageWithOffset) {
    try {
        service::parse_json("{} x");
        FAIL() << "expected JsonError";
    } catch (const service::JsonError& e) {
        EXPECT_GE(e.offset(), 2u);
    }
}

TEST(ServiceJson, RejectsExcessNestingAndBadEscapes) {
    std::string deep;
    for (int i = 0; i < 100; ++i) deep += "[";
    EXPECT_THROW(service::parse_json(deep, 64), service::JsonError);
    EXPECT_THROW(service::parse_json("\"\\q\""), service::JsonError);
    EXPECT_THROW(service::parse_json("{\"a\":}"), service::JsonError);
    EXPECT_THROW(service::parse_json("[1,]"), service::JsonError);
}

// --- protocol ------------------------------------------------------------

TEST(ServiceProtocol, FrameHeaderRoundTripAndBounds) {
    const std::string h = service::encode_frame_header(0x01020304u);
    ASSERT_EQ(h.size(), service::kFrameHeader);
    EXPECT_EQ(service::decode_frame_header(
                  reinterpret_cast<const unsigned char*>(h.data())),
              0x01020304u);
    const std::string big =
        service::encode_frame_header(service::kMaxFrame + 1);
    EXPECT_THROW(service::decode_frame_header(
                     reinterpret_cast<const unsigned char*>(big.data())),
                 std::runtime_error);
}

TEST(ServiceProtocol, RequestRoundTrip) {
    service::Request r;
    r.op = service::Op::Campaign;
    r.id = "req-1";
    r.idempotency_key = "k";
    r.deadline_ms = 1500;
    r.max_vectors = 32;
    r.threads = 3;
    r.progress = true;
    r.spec = kOneCellSpec;
    const service::Request p = service::parse_request(service::request_json(r));
    EXPECT_EQ(p.op, service::Op::Campaign);
    EXPECT_EQ(p.id, "req-1");
    EXPECT_EQ(p.idempotency_key, "k");
    EXPECT_EQ(p.deadline_ms, 1500);
    EXPECT_EQ(p.max_vectors, 32);
    EXPECT_EQ(p.threads, 3);
    EXPECT_TRUE(p.progress);
    EXPECT_EQ(p.spec, kOneCellSpec);
}

TEST(ServiceProtocol, IgnoresAStrayEngineField) {
    // The envelope takes no engine: like any unknown key, a stray one is
    // ignored, so older clients keep working.
    const service::Request p = service::parse_request(
        R"({"op":"campaign","engine":"ppsfp","spec":"x"})");
    EXPECT_EQ(p.op, service::Op::Campaign);
    EXPECT_EQ(service::request_json(p).find("engine"), std::string::npos);
}

TEST(ServiceProtocol, RejectsBadRequests) {
    EXPECT_THROW(service::parse_request("not json"), service::ProtocolError);
    EXPECT_THROW(service::parse_request("{}"), service::ProtocolError);
    EXPECT_THROW(service::parse_request("{\"op\":\"reboot\"}"),
                 service::ProtocolError);
    // campaign without a spec / project without circuit+rules
    EXPECT_THROW(service::parse_request("{\"op\":\"campaign\"}"),
                 service::ProtocolError);
    EXPECT_THROW(
        service::parse_request("{\"op\":\"project\",\"circuit\":\"c17\"}"),
        service::ProtocolError);
}

TEST(ServiceProtocol, ReplyBuildersParseBack) {
    const service::Reply shed =
        service::parse_reply(service::result_shed_json("r", 75, "queue full"));
    EXPECT_EQ(shed.event, "result");
    EXPECT_EQ(shed.status, "shed");
    EXPECT_EQ(shed.retry_after_ms, 75);

    const service::Reply prog =
        service::parse_reply(service::progress_json("r", "campaign", 2, 8));
    EXPECT_EQ(prog.event, "progress");
    EXPECT_EQ(prog.stage, "campaign");
    EXPECT_EQ(prog.done, 2u);
    EXPECT_EQ(prog.total, 8u);

    const service::Reply cancelled = service::parse_reply(
        service::result_cancelled_json("r", "deadline-expired", "{}", "{}"));
    EXPECT_EQ(cancelled.status, "cancelled");
    EXPECT_EQ(cancelled.stop, "deadline-expired");

    const service::Reply err =
        service::parse_reply(service::result_error_json("r", "boom"));
    EXPECT_EQ(err.status, "error");
    EXPECT_EQ(err.error, "boom");
}

// --- hardened env knobs --------------------------------------------------

TEST(EnvKnobs, IntRejectsGarbageTrailingJunkAndOverflow) {
    EnvGuard g("DLPROJ_TEST_KNOB", nullptr);
    EXPECT_EQ(support::env_int("DLPROJ_TEST_KNOB", 7, 0, 100), 7);
    ::setenv("DLPROJ_TEST_KNOB", "42", 1);
    EXPECT_EQ(support::env_int("DLPROJ_TEST_KNOB", 7, 0, 100), 42);
    for (const char* bad :
         {"1O", "4x", " 5", "5 ", "", "-3", "101", "0x10",
          "99999999999999999999999999"}) {
        ::setenv("DLPROJ_TEST_KNOB", bad, 1);
        if (std::string(bad).empty()) {
            EXPECT_EQ(support::env_int("DLPROJ_TEST_KNOB", 7, 0, 100), 7);
            continue;
        }
        try {
            support::env_int("DLPROJ_TEST_KNOB", 7, 0, 100);
            FAIL() << "accepted garbage: \"" << bad << "\"";
        } catch (const support::EnvError& e) {
            // The diagnostic must name the variable so the operator can fix
            // the right knob.
            EXPECT_NE(std::string(e.what()).find("DLPROJ_TEST_KNOB"),
                      std::string::npos);
        }
    }
}

TEST(EnvKnobs, FlagAcceptsDocumentedSpellingsOnly) {
    EnvGuard g("DLPROJ_TEST_FLAG", nullptr);
    EXPECT_TRUE(support::env_flag("DLPROJ_TEST_FLAG", true));
    EXPECT_FALSE(support::env_flag("DLPROJ_TEST_FLAG", false));
    for (const char* yes : {"1", "on", "TRUE", "Yes"}) {
        ::setenv("DLPROJ_TEST_FLAG", yes, 1);
        EXPECT_TRUE(support::env_flag("DLPROJ_TEST_FLAG", false)) << yes;
    }
    for (const char* no : {"0", "off", "False", "NO"}) {
        ::setenv("DLPROJ_TEST_FLAG", no, 1);
        EXPECT_FALSE(support::env_flag("DLPROJ_TEST_FLAG", true)) << no;
    }
    ::setenv("DLPROJ_TEST_FLAG", "maybe", 1);
    EXPECT_THROW(support::env_flag("DLPROJ_TEST_FLAG", true),
                 support::EnvError);
}

TEST(EnvKnobs, DeadlineMsKnobIsHardened) {
    EnvGuard g("DLPROJ_DEADLINE_MS", nullptr);
    EXPECT_EQ(support::env_deadline_ms(), 0);
    ::setenv("DLPROJ_DEADLINE_MS", "250", 1);
    EXPECT_EQ(support::env_deadline_ms(), 250);
    for (const char* bad : {"banana", "-5", "12ms"}) {
        ::setenv("DLPROJ_DEADLINE_MS", bad, 1);
        EXPECT_THROW(support::env_deadline_ms(), support::EnvError) << bad;
    }
}

TEST(EnvKnobs, ThreadsKnobIsHardened) {
    EnvGuard g("DLPROJ_THREADS", nullptr);
    ::setenv("DLPROJ_THREADS", "3", 1);
    EXPECT_EQ(parallel::resolve_threads(0), 3);
    for (const char* bad : {"1O", "-1", "4096", "two"}) {
        ::setenv("DLPROJ_THREADS", bad, 1);
        EXPECT_THROW(parallel::resolve_threads(0), support::EnvError) << bad;
    }
    // An explicit request never consults the environment.
    EXPECT_EQ(parallel::resolve_threads(2), 2);
}

TEST(EnvKnobs, LintKnobIsHardened) {
    EnvGuard g("DLPROJ_LINT", nullptr);
    EXPECT_TRUE(lint::lint_enabled_from_env());
    ::setenv("DLPROJ_LINT", "off", 1);
    EXPECT_FALSE(lint::lint_enabled_from_env());
    ::setenv("DLPROJ_LINT", "on", 1);
    EXPECT_TRUE(lint::lint_enabled_from_env());
    ::setenv("DLPROJ_LINT", "2", 1);
    EXPECT_THROW(lint::lint_enabled_from_env(), support::EnvError);
}

// --- backoff -------------------------------------------------------------

TEST(BackoffPolicy, GrowsExponentiallyToTheCeiling) {
    support::BackoffOptions opt;
    opt.initial_ms = 10;
    opt.factor = 2.0;
    opt.max_ms = 100;
    opt.jitter = 0.0;
    support::Backoff b(opt);
    EXPECT_EQ(b.next_ms(), 10);
    EXPECT_EQ(b.next_ms(), 20);
    EXPECT_EQ(b.next_ms(), 40);
    EXPECT_EQ(b.next_ms(), 80);
    EXPECT_EQ(b.next_ms(), 100);  // capped
    EXPECT_EQ(b.next_ms(), 100);
}

TEST(BackoffPolicy, JitterIsBoundedAndSeedDeterministic) {
    support::BackoffOptions opt;
    opt.initial_ms = 100;
    opt.factor = 1.0;
    opt.jitter = 0.25;
    opt.seed = 42;
    support::Backoff a(opt), b(opt);
    for (int i = 0; i < 16; ++i) {
        const long long da = a.next_ms();
        EXPECT_EQ(da, b.next_ms()) << "same seed, same schedule";
        EXPECT_GE(da, 75);
        EXPECT_LE(da, 125);
    }
}

TEST(BackoffPolicy, RetryAfterHintIsAFloorNotACeiling) {
    support::BackoffOptions opt;
    opt.initial_ms = 5;
    opt.jitter = 0.0;
    support::Backoff b(opt);
    EXPECT_EQ(b.next_ms(500), 500);  // hint dominates a small base
    EXPECT_GE(b.next_ms(1), 10);     // base dominates a small hint
}

// --- store write-ahead journal + crash recovery --------------------------

TEST(StoreJournal, CleanSessionPairsEveryIntent) {
    const std::string root = scratch_dir("journal_clean");
    campaign::ArtifactStore store(root);
    store.put("cell", "key-a", "payload-a");
    store.put("tests", "key-b", "payload-b");
    ASSERT_TRUE(fs::exists(root + "/journal.wal"));

    const campaign::RecoveryReport rep = campaign::recover_store(root);
    EXPECT_EQ(rep.intents, 2u);
    EXPECT_EQ(rep.unpaired, 0u);
    EXPECT_EQ(rep.quarantined, 0u);
    EXPECT_EQ(rep.stale_tmps, 0u);
    EXPECT_TRUE(rep.clean());
    // Recovery settles the journal; a second pass finds nothing.
    EXPECT_EQ(fs::file_size(root + "/journal.wal"), 0u);
    const campaign::RecoveryReport again = campaign::recover_store(root);
    EXPECT_EQ(again.intents, 0u);

    // The objects themselves are untouched and still served.
    campaign::ArtifactStore reopened(root);
    EXPECT_EQ(reopened.get("cell", "key-a").value_or(""), "payload-a");
}

TEST(StoreJournal, TornCommitIsQuarantinedNotServed) {
    const std::string root = scratch_dir("journal_torn");
    campaign::ArtifactStore store(root);
    store.put("cell", "key-torn", "payload");
    const std::string path = store.object_path("cell", "key-torn");

    // Simulate a SIGKILL inside the commit window: the object bytes are
    // torn and the journal ends with an unpaired intent for it.
    std::string bytes = slurp(path);
    bytes.resize(bytes.size() / 2);
    spit(path, bytes);
    ASSERT_FALSE(campaign::verify_object_bytes(bytes));
    const std::string rel =
        fs::path(path).lexically_relative(fs::path(root) / "objects")
            .generic_string();
    std::ofstream(root + "/journal.wal", std::ios::app)
        << "I 99999 1 " << rel << "\n";

    const campaign::RecoveryReport rep = campaign::recover_store(root);
    EXPECT_EQ(rep.unpaired, 1u);
    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_FALSE(rep.clean());
    EXPECT_FALSE(fs::exists(path)) << "torn object must leave objects/";
    // Quarantined, not deleted: the bytes are evidence.
    EXPECT_FALSE(fs::is_empty(root + "/quarantine"));
    // The store treats the healed slot as a plain miss.
    campaign::ArtifactStore reopened(root);
    EXPECT_FALSE(reopened.get("cell", "key-torn").has_value());
}

TEST(StoreJournal, IntactObjectBehindUnpairedIntentIsKept) {
    const std::string root = scratch_dir("journal_intact");
    campaign::ArtifactStore store(root);
    store.put("cell", "key-ok", "payload");
    const std::string path = store.object_path("cell", "key-ok");
    // Crash after the rename but before the commit record: the object is
    // complete, only the journal is behind.
    const std::string rel =
        fs::path(path).lexically_relative(fs::path(root) / "objects")
            .generic_string();
    std::ofstream(root + "/journal.wal", std::ios::app)
        << "I 99999 7 " << rel << "\n";

    const campaign::RecoveryReport rep = campaign::recover_store(root);
    EXPECT_EQ(rep.unpaired, 1u);
    EXPECT_EQ(rep.verified, 1u);
    EXPECT_EQ(rep.quarantined, 0u);
    campaign::ArtifactStore reopened(root);
    EXPECT_EQ(reopened.get("cell", "key-ok").value_or(""), "payload");
}

TEST(StoreJournal, SweepsAbandonedTempFiles) {
    const std::string root = scratch_dir("journal_tmps");
    campaign::ArtifactStore store(root);
    store.put("cell", "key", "payload");
    const std::string path = store.object_path("cell", "key");
    spit(path + ".tmp.4242.9", "half-written");

    const campaign::RecoveryReport rep = campaign::recover_store(root);
    EXPECT_EQ(rep.stale_tmps, 1u);
    EXPECT_FALSE(fs::exists(path + ".tmp.4242.9"));
    EXPECT_TRUE(fs::exists(path)) << "committed objects survive the sweep";
}

TEST(StoreJournal, RecoveryIgnoresTornJournalLinesAndMissingRoots) {
    EXPECT_EQ(campaign::recover_store("").intents, 0u);
    EXPECT_EQ(campaign::recover_store(testing::TempDir() + "nonexistent_root")
                  .intents,
              0u);
    const std::string root = scratch_dir("journal_torn_lines");
    campaign::ArtifactStore store(root);
    store.put("cell", "key", "payload");
    // A crash can tear the journal line itself; recovery must not trip.
    std::ofstream(root + "/journal.wal", std::ios::app) << "I 12";
    const campaign::RecoveryReport rep = campaign::recover_store(root);
    EXPECT_EQ(rep.quarantined, 0u);
}

// --- the in-process service ----------------------------------------------

service::ServiceConfig test_config(const std::string& dir) {
    service::ServiceConfig cfg;
    cfg.socket_path = dir + "/srv.sock";
    cfg.workers = 2;
    cfg.queue_max = 8;
    cfg.retry_after_ms = 5;
    cfg.io_timeout_ms = 10000;
    cfg.drain_ms = 5000;
    cfg.cache_dir = dir + "/cache";
    return cfg;
}

service::ClientOptions test_client(const service::ServiceConfig& cfg) {
    service::ClientOptions opt;
    opt.socket_path = cfg.socket_path;
    opt.backoff.initial_ms = 2;
    opt.backoff.max_ms = 50;
    return opt;
}

TEST(Service, PingStatsAndCampaignEndToEnd) {
    const std::string dir = scratch_dir("svc_e2e");
    service::Service svc(test_config(dir));
    svc.start();

    service::Request ping;
    ping.op = service::Op::Ping;
    EXPECT_TRUE(service::call_service(ping, test_client(svc.config())).ok());

    service::Request campaign;
    campaign.op = service::Op::Campaign;
    campaign.spec = kOneCellSpec;
    const service::CallResult run =
        service::call_service(campaign, test_client(svc.config()));
    ASSERT_EQ(run.status, "ok") << run.error;
    const service::Json body = service::parse_json(run.body);
    EXPECT_EQ(body.str_or("campaign", ""), "svc");
    ASSERT_NE(body.get("cells"), nullptr);
    EXPECT_EQ(body.get("cells")->items().size(), 1u);
    EXPECT_FALSE(run.stats.empty());

    service::Request stats;
    stats.op = service::Op::Stats;
    const service::CallResult s =
        service::call_service(stats, test_client(svc.config()));
    ASSERT_TRUE(s.ok());
    const service::Json sb = service::parse_json(s.body);
    EXPECT_GE(sb.int_or("completed", 0), 2);
    EXPECT_EQ(sb.int_or("queue_depth", -1), 0);

    svc.stop();
    EXPECT_FALSE(fs::exists(svc.config().socket_path))
        << "stop() unlinks the socket";
}

TEST(Service, FullQueueShedsWithRetryAfterBeforeReadingThePayload) {
    const std::string dir = scratch_dir("svc_shed");
    service::ServiceConfig cfg = test_config(dir);
    cfg.workers = 1;
    cfg.queue_max = 1;
    cfg.retry_after_ms = 30;
    service::Service svc(cfg);
    svc.start();

    // Occupy the worker and the queue slot with lingering pings.
    service::Request linger;
    linger.op = service::Op::Ping;
    linger.linger_ms = 400;
    const std::string payload = service::request_json(linger);
    service::Fd a = service::unix_connect(cfg.socket_path);
    service::write_frame(a.get(), payload, 1000);
    std::this_thread::sleep_for(100ms);
    service::Fd b = service::unix_connect(cfg.socket_path);
    service::write_frame(b.get(), payload, 1000);
    std::this_thread::sleep_for(100ms);

    // The third request must be shed (no retry on this client).
    service::Request ping;
    ping.op = service::Op::Ping;
    service::ClientOptions opt = test_client(cfg);
    opt.max_attempts = 1;
    opt.retry_on_shed = false;
    const service::CallResult res = service::call_service(ping, opt);
    EXPECT_EQ(res.status, "shed");
    EXPECT_EQ(res.retry_after_ms, 30);
    EXPECT_GE(svc.stats().shed, 1);

    // A retrying client eventually gets through once the backlog drains.
    service::ClientOptions retrying = test_client(cfg);
    retrying.max_attempts = 30;
    EXPECT_TRUE(service::call_service(ping, retrying).ok());

    // Drain the two lingering replies.
    std::string reply;
    EXPECT_TRUE(service::read_frame(a.get(), reply, 5000));
    EXPECT_TRUE(service::read_frame(b.get(), reply, 5000));
    svc.stop();
}

TEST(Service, WatchdogCancelsARunPastItsDeadline) {
    const std::string dir = scratch_dir("svc_deadline");
    service::Service svc(test_config(dir));
    svc.start();

    service::Request r;
    r.op = service::Op::Ping;
    r.linger_ms = 30000;  // would hold the worker for 30 s...
    r.deadline_ms = 80;   // ...but the envelope says 80 ms
    service::ClientOptions opt = test_client(svc.config());
    opt.max_attempts = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const service::CallResult res = service::call_service(r, opt);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    EXPECT_EQ(res.status, "cancelled") << res.error;
    // Cooperative check and watchdog race benignly; either reason is a
    // correct account of why the run stopped.
    EXPECT_TRUE(res.stop == "deadline-expired" || res.stop == "cancelled")
        << res.stop;
    EXPECT_LT(elapsed, 10000) << "deadline must beat the linger by far";
    svc.stop();
}

TEST(Service, MaxDeadlineClampsAndDefaultApplies) {
    const std::string dir = scratch_dir("svc_clamp");
    service::ServiceConfig cfg = test_config(dir);
    cfg.default_deadline_ms = 80;  // requests without a deadline get one
    cfg.max_deadline_ms = 100;     // and nobody may ask for more
    service::Service svc(cfg);
    svc.start();

    service::Request r;
    r.op = service::Op::Ping;
    r.linger_ms = 30000;
    r.deadline_ms = 60000;  // clamped to 100 ms
    service::ClientOptions opt = test_client(cfg);
    opt.max_attempts = 1;
    EXPECT_EQ(service::call_service(r, opt).status, "cancelled");

    r.deadline_ms = 0;  // server default: 80 ms
    EXPECT_EQ(service::call_service(r, opt).status, "cancelled");
    svc.stop();
}

TEST(Service, IdempotentRetryReplaysTheStoredResponseByteForByte) {
    const std::string dir = scratch_dir("svc_idem");
    service::Service svc(test_config(dir));
    svc.start();

    service::Request r;
    r.op = service::Op::Project;
    r.circuit = "c17";
    r.rules = "uniform";
    r.idempotency_key = "idem-fixed";
    service::ClientOptions opt = test_client(svc.config());
    opt.max_attempts = 1;
    const service::CallResult first = service::call_service(r, opt);
    ASSERT_TRUE(first.ok()) << first.error;
    const service::CallResult second = service::call_service(r, opt);
    ASSERT_TRUE(second.ok()) << second.error;
    EXPECT_EQ(first.raw, second.raw)
        << "a replay must be byte-identical, not merely equivalent";
    EXPECT_GE(svc.stats().replays, 1);
    svc.stop();
}

TEST(Service, ProgressEventsStreamToTheClient) {
    const std::string dir = scratch_dir("svc_progress");
    service::Service svc(test_config(dir));
    svc.start();

    service::Request r;
    r.op = service::Op::Campaign;
    r.spec = kSoakSpec;
    r.progress = true;
    service::ClientOptions opt = test_client(svc.config());
    std::atomic<int> events{0};
    std::atomic<std::size_t> last_total{0};
    opt.on_progress = [&](const std::string& stage, std::size_t,
                          std::size_t total) {
        if (stage == "campaign") {
            events.fetch_add(1);
            last_total.store(total);
        }
    };
    ASSERT_TRUE(service::call_service(r, opt).ok());
    EXPECT_GE(events.load(), 1);
    EXPECT_EQ(last_total.load(), 4u);
    svc.stop();
}

TEST(Service, GracefulStopFinishesInFlightWork) {
    const std::string dir = scratch_dir("svc_drain");
    service::Service svc(test_config(dir));
    svc.start();

    service::Request linger;
    linger.op = service::Op::Ping;
    linger.linger_ms = 300;
    service::Fd conn = service::unix_connect(svc.config().socket_path);
    service::write_frame(conn.get(), service::request_json(linger), 1000);
    std::this_thread::sleep_for(50ms);

    svc.stop();  // drain_ms = 5000 >> 300: the linger finishes

    std::string payload;
    ASSERT_TRUE(service::read_frame(conn.get(), payload, 1000));
    EXPECT_EQ(service::parse_reply(payload).status, "ok");
    EXPECT_THROW(service::unix_connect(svc.config().socket_path),
                 service::WireError);
    // stop() is idempotent.
    svc.stop();
}

TEST(Service, ShutdownOpWakesTheDaemonLoop) {
    const std::string dir = scratch_dir("svc_shutdown");
    service::Service svc(test_config(dir));
    svc.start();
    std::thread daemon_main([&] {
        if (svc.wait_shutdown_requested()) svc.stop();
    });
    service::Request r;
    r.op = service::Op::Shutdown;
    service::ClientOptions opt = test_client(svc.config());
    opt.max_attempts = 1;
    EXPECT_TRUE(service::call_service(r, opt).ok());
    daemon_main.join();
    EXPECT_FALSE(svc.running());
}

TEST(Service, ConfigFromEnvParsesAndRejects) {
    EnvGuard s("DLPROJ_SERVE_SOCKET", "/tmp/x.sock");
    EnvGuard w("DLPROJ_SERVE_WORKERS", "5");
    EnvGuard q("DLPROJ_SERVE_QUEUE_MAX", "9");
    EnvGuard d("DLPROJ_SERVE_DRAIN_MS", "1234");
    EnvGuard m("DLPROJ_SERVE_DEADLINE_MS", "777");
    EnvGuard c("DLPROJ_CACHE", nullptr);
    service::ServiceConfig cfg = service::config_from_env();
    EXPECT_EQ(cfg.socket_path, "/tmp/x.sock");
    EXPECT_EQ(cfg.workers, 5);
    EXPECT_EQ(cfg.queue_max, 9u);
    EXPECT_EQ(cfg.drain_ms, 1234);
    EXPECT_EQ(cfg.max_deadline_ms, 777);
    ::setenv("DLPROJ_SERVE_WORKERS", "lots", 1);
    EXPECT_THROW(service::config_from_env(), support::EnvError);
}

// --- soak: concurrent clients through the fault-injection proxy ----------

TEST(Soak, ConcurrentClientsThroughChaosSurviveARestartWithZeroCorruption) {
    const std::string dir = scratch_dir("soak");
    service::ServiceConfig cfg = test_config(dir);
    cfg.workers = 4;
    cfg.retry_after_ms = 3;
    std::optional<service::Service> svc;
    svc.emplace(cfg);
    svc->start();

    service::ChaosConfig chaos;
    chaos.listen_path = dir + "/chaos.sock";
    chaos.target_path = cfg.socket_path;
    chaos.seed = 7;
    chaos.refuse_p = 0.03;
    chaos.drop_p = 0.04;
    chaos.truncate_p = 0.04;
    chaos.delay_p = 0.25;
    chaos.delay_ms_max = 3;
    service::FaultProxy proxy(chaos);
    proxy.start();

    constexpr int kThreads = 8;
    constexpr int kIters = 6;
    std::atomic<int> failures{0};
    std::atomic<int> ok_calls{0};
    std::atomic<int> done_clients{0};
    std::mutex diag_mu;
    std::vector<std::string> diags;
    std::vector<std::string> in_flight(kThreads);  // guarded by diag_mu
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            service::ClientOptions opt;
            opt.socket_path = chaos.listen_path;  // through the proxy
            // The retry budget must outlast the worst-case mid-soak
            // restart window: under TSan the predecessor's drain waits
            // out in-flight campaign runs that execute several times
            // slower than plain builds.  80 x <=150 ms covers ~12 s;
            // successful calls exit the loop on the first good reply.
            opt.max_attempts = 80;
            opt.io_timeout_ms = 8000;
            opt.backoff.initial_ms = 2;
            opt.backoff.max_ms = 150;
            opt.backoff.seed = static_cast<std::uint64_t>(t) + 1;
            for (int i = 0; i < kIters; ++i) {
                service::Request r;
                switch ((t + i) % 3) {
                    case 0:
                        r.op = service::Op::Ping;
                        r.linger_ms = 3;
                        break;
                    case 1:
                        r.op = service::Op::Project;
                        r.circuit = (i % 2) ? "parity4" : "c17";
                        r.rules = "uniform";
                        r.seed = static_cast<std::uint64_t>(i % 2) + 1;
                        break;
                    default:
                        r.op = service::Op::Campaign;
                        r.spec = kSoakSpec;
                        r.progress = true;
                        break;
                }
                {
                    std::lock_guard<std::mutex> lock(diag_mu);
                    in_flight[static_cast<std::size_t>(t)] =
                        "iter " + std::to_string(i) + " op " +
                        std::string(service::op_name(r.op));
                }
                const service::CallResult res = service::call_service(r, opt);
                if (res.ok()) {
                    ok_calls.fetch_add(1);
                } else {
                    failures.fetch_add(1);
                    std::lock_guard<std::mutex> lock(diag_mu);
                    diags.push_back("thread " + std::to_string(t) + " iter " +
                                    std::to_string(i) + ": " + res.status +
                                    " stop=" + res.stop + " err=" + res.error);
                }
            }
            {
                std::lock_guard<std::mutex> lock(diag_mu);
                in_flight[static_cast<std::size_t>(t)].clear();
            }
            done_clients.fetch_add(1);
        });
    }

    // Mid-soak the server "crashes" (stops) and a new instance takes over
    // the same socket and cache; clients must ride it out on retries.
    std::this_thread::sleep_for(300ms);
    svc->stop();
    svc.emplace(cfg);
    svc->start();
    EXPECT_TRUE(svc->recovery().quarantined == 0)
        << "a graceful predecessor leaves no torn objects";

    // Bounded join: a lost wake-up must fail loudly, with what was in
    // flight, instead of hanging silently until the ctest timeout.
    const auto join_deadline = std::chrono::steady_clock::now() + 120s;
    while (done_clients.load() < kThreads &&
           std::chrono::steady_clock::now() < join_deadline)
        std::this_thread::sleep_for(50ms);
    if (done_clients.load() < kThreads) {
        std::lock_guard<std::mutex> lock(diag_mu);
        std::cerr << "soak: " << kThreads - done_clients.load()
                  << " client(s) still running after 120 s; ok="
                  << ok_calls.load() << " failed=" << failures.load()
                  << " proxy_connections=" << proxy.connections() << "\n";
        for (int t = 0; t < kThreads; ++t)
            if (!in_flight[static_cast<std::size_t>(t)].empty())
                std::cerr << "  thread " << t << " in flight: "
                          << in_flight[static_cast<std::size_t>(t)] << "\n";
        for (const std::string& d : diags)
            std::cerr << "  failed: " << d << "\n";
        std::abort();  // the stuck clients cannot be joined
    }
    for (std::thread& c : clients) c.join();
    proxy.stop();
    svc->stop();

    std::string diag;
    for (const std::string& d : diags) diag += d + "\n";
    EXPECT_EQ(failures.load(), 0)
        << "every request must eventually succeed:\n" << diag;
    EXPECT_EQ(ok_calls.load(), kThreads * kIters);
    EXPECT_GT(proxy.connections(), static_cast<std::size_t>(0));
    EXPECT_GT(proxy.faults_injected(), static_cast<std::size_t>(0))
        << "the soak must actually have been soaked";

    // Zero corrupted artifacts: the store the chaos-soaked service left
    // behind recovers clean...
    const campaign::RecoveryReport rec = campaign::recover_store(cfg.cache_dir);
    EXPECT_TRUE(rec.clean()) << campaign::recovery_summary(rec);

    // ...and a warm rerun over it is byte-identical to a fresh run (every
    // cell a verified cache hit — nothing lost, nothing wrong).
    const campaign::CampaignSpec spec =
        campaign::parse_campaign_spec(kSoakSpec);
    campaign::CampaignOptions warm;
    warm.cache_dir = cfg.cache_dir;
    const campaign::CampaignReport warm_report =
        campaign::run_campaign(spec, warm);
    EXPECT_EQ(warm_report.stats.cell_hits, 4u);
    EXPECT_EQ(warm_report.stats.store_corrupt, 0u);
    EXPECT_EQ(campaign::report_json(warm_report),
              reference_report(kSoakSpec));
}

// --- crash tests against the real binaries -------------------------------

pid_t spawn_argv(const std::vector<std::string>& argv) {
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv)
        cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execv(cargv[0], cargv.data());
        ::_exit(127);
    }
    return pid;
}

bool wait_for_socket(const std::string& path, int tries = 300) {
    for (int i = 0; i < tries; ++i) {
        try {
            service::Fd probe = service::unix_connect(path);
            return true;
        } catch (const service::WireError&) {
            std::this_thread::sleep_for(10ms);
        }
    }
    return false;
}

TEST(Crash, CampaignKilledAtRandomPointsResumesByteIdentical) {
    const char* bin = std::getenv("DLPROJ_CAMPAIGN_BIN");
    if (!bin) GTEST_SKIP() << "DLPROJ_CAMPAIGN_BIN not set (run via ctest)";

    const std::string dir = scratch_dir("crash_campaign");
    const std::string spec_path = dir + "/crash.campaign";
    spit(spec_path, kCrashSpec);
    const std::string out = dir + "/report.json";
    const std::string reference = reference_report(kCrashSpec);

    bool finished = false;
    int killed_rounds = 0;
    for (int round = 0; round < 50 && !finished; ++round) {
        fs::remove(out);
        const pid_t pid = spawn_argv({bin, "--cache-dir=" + dir + "/cache",
                                      "--json=" + out, "--quiet", spec_path});
        ASSERT_GT(pid, 0);
        // March the kill point forward so SIGKILL lands at a different
        // stage of the campaign every round; the cache turns each death
        // into progress, so the loop terminates.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10 + 17 * round));
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
            finished = true;
        else
            ++killed_rounds;
    }
    ASSERT_TRUE(finished) << "campaign never outran the killer";
    EXPECT_EQ(slurp(out), reference)
        << "a resumed campaign must reproduce the uninterrupted report "
           "byte for byte (killed " << killed_rounds << " time(s))";
}

TEST(Crash, ServerKilledMidCampaignRecoversAndServesIdenticalResults) {
    const char* bin = std::getenv("DLPROJ_SERVED_BIN");
    if (!bin) GTEST_SKIP() << "DLPROJ_SERVED_BIN not set (run via ctest)";

    const std::string dir = scratch_dir("crash_server");
    const std::string sock = dir + "/srv.sock";
    const std::string cache = dir + "/cache";
    const std::vector<std::string> argv = {
        bin, "--socket=" + sock, "--cache-dir=" + cache, "--quiet"};

    pid_t pid = spawn_argv(argv);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(wait_for_socket(sock));

    // Start a campaign, then SIGKILL the daemon mid-run.
    service::Request r;
    r.op = service::Op::Campaign;
    r.spec = kCrashSpec;
    {
        service::Fd conn = service::unix_connect(sock);
        service::write_frame(conn.get(), service::request_json(r), 1000);
        std::this_thread::sleep_for(60ms);
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status));
    }

    // A successor on the same cache self-heals at startup and completes
    // the campaign.
    pid = spawn_argv(argv);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(wait_for_socket(sock));
    service::ClientOptions opt;
    opt.socket_path = sock;
    opt.max_attempts = 5;
    opt.backoff.initial_ms = 5;
    const service::CallResult res = service::call_service(r, opt);
    EXPECT_EQ(res.status, "ok") << res.error;

    ::kill(pid, SIGTERM);  // graceful drain
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    // The SIGKILL left no lie in the cache: a warm rerun matches a fresh
    // run byte for byte.
    const campaign::RecoveryReport rec = campaign::recover_store(cache);
    EXPECT_TRUE(rec.clean()) << campaign::recovery_summary(rec);
    campaign::CampaignOptions warm;
    warm.cache_dir = cache;
    const campaign::CampaignReport warm_report = campaign::run_campaign(
        campaign::parse_campaign_spec(kCrashSpec), warm);
    EXPECT_EQ(warm_report.stats.store_corrupt, 0u);
    EXPECT_EQ(campaign::report_json(warm_report),
              reference_report(kCrashSpec));
}

}  // namespace
}  // namespace dlp
