// The static-analysis subsystem: diagnostic engine, suppression, the check
// sweeps over the data/bad_* fixtures (golden check ids + locations), the
// JSON renderer, and the ExperimentRunner fail-fast gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "extract/rules_parser.h"
#include "flow/experiment.h"
#include "gatesim/faults.h"
#include "lint/checks.h"
#include "lint/diagnostics.h"
#include "netlist/builders.h"
#include "service/json.h"

#ifndef DLPROJ_DATA_DIR
#define DLPROJ_DATA_DIR "data"
#endif

namespace {

using namespace dlp;

std::string read_fixture(const std::string& name) {
    const std::string path = std::string(DLPROJ_DATA_DIR) + "/" + name;
    std::ifstream in(path);
    if (!in) ADD_FAILURE() << "cannot open fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Runs the same sweep cascade as the dlproj_lint CLI on a `.bench`
/// fixture: one text scan; when it finds nothing, the circuit- and
/// fault-level sweeps over the circuit it built.
lint::LintReport lint_bench_fixture(const std::string& name,
                                    const lint::LintOptions& options = {}) {
    lint::DiagnosticEngine engine{lint::SuppressionSet(options.suppress)};
    const std::string text = read_fixture(name);
    if (const auto c = lint::lint_bench_text(text, name, engine)) {
        lint::lint_circuit(*c, engine, options);
        const auto collapsed =
            gatesim::collapse_faults(*c, gatesim::full_fault_universe(*c));
        lint::lint_faults(*c, collapsed, engine);
    }
    return lint::make_report(engine);
}

lint::LintReport lint_rules_fixture(const std::string& name) {
    const std::string text = read_fixture(name);
    lint::DiagnosticEngine engine;
    lint::lint_rules(extract::parse_defect_rules(text), engine, name);
    return lint::make_report(engine);
}

bool has_check(const lint::LintReport& r, std::string_view check) {
    return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                       [&](const lint::Diagnostic& d) {
                           return d.check == check;
                       });
}

const lint::Diagnostic* find_check(const lint::LintReport& r,
                                   std::string_view check) {
    for (const lint::Diagnostic& d : r.diagnostics)
        if (d.check == check) return &d;
    return nullptr;
}

/// Minimal JSON syntax validator (objects/arrays/strings/numbers/keywords)
/// — enough to prove render_json always emits a well-formed document.
class JsonChecker {
public:
    explicit JsonChecker(std::string_view text) : s_(text) {}

    bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return pos_ == s_.size();
    }

private:
    bool value() {
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }
    bool object() {
        ++pos_;  // '{'
        skip_ws();
        if (peek('}')) return true;
        while (true) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (!expect(':')) return false;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek('}')) return true;
            if (!expect(',')) return false;
        }
    }
    bool array() {
        ++pos_;  // '['
        skip_ws();
        if (peek(']')) return true;
        while (true) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek(']')) return true;
            if (!expect(',')) return false;
        }
    }
    bool string() {
        if (!expect('"')) return false;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) return false;
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[pos_])))
                            return false;
                    }
                } else if (std::string_view("\"\\/bfnrt").find(e) ==
                           std::string_view::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }
    bool number() {
        const size_t start = pos_;
        if (peek('-')) {}
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }
    bool literal(std::string_view lit) {
        if (s_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }
    bool expect(char c) {
        if (pos_ >= s_.size() || s_[pos_] != c) return false;
        ++pos_;
        return true;
    }
    bool peek(char c) {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }
    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    std::string_view s_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------- engine

TEST(Diagnostics, EngineCountsBySeverity) {
    lint::DiagnosticEngine e;
    e.report(lint::Severity::Error, "net-undriven", "m1");
    e.report(lint::Severity::Warning, "fanin-excessive", "m2");
    e.report(lint::Severity::Warning, "fanin-excessive", "m3");
    e.report(lint::Severity::Info, "fault-structurally-untestable", "m4");
    EXPECT_EQ(e.errors(), 1u);
    EXPECT_EQ(e.warnings(), 2u);
    EXPECT_EQ(e.infos(), 1u);
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.diagnostics().size(), 4u);
    EXPECT_EQ(lint::summary_line(e), "1 error, 2 warnings, 1 info");
}

TEST(Diagnostics, SuppressionExactAndWildcard) {
    const lint::SuppressionSet s("net-undriven, rules-*;  -fanin-excessive");
    EXPECT_TRUE(s.suppresses("net-undriven"));
    EXPECT_TRUE(s.suppresses("rules-overlapping-bins"));
    EXPECT_TRUE(s.suppresses("rules-density-unnormalized"));
    EXPECT_TRUE(s.suppresses("fanin-excessive"));
    EXPECT_FALSE(s.suppresses("net-multi-driven"));
    EXPECT_FALSE(s.suppresses("comb-cycle"));
    EXPECT_TRUE(lint::SuppressionSet("").empty());
}

TEST(Diagnostics, SuppressedFindingsDoNotCount) {
    lint::DiagnosticEngine e{lint::SuppressionSet("net-undriven")};
    e.report(lint::Severity::Error, "net-undriven", "dropped");
    e.report(lint::Severity::Error, "comb-cycle", "kept");
    EXPECT_EQ(e.errors(), 1u);
    EXPECT_EQ(e.suppressed(), 1u);
    ASSERT_EQ(e.diagnostics().size(), 1u);
    EXPECT_EQ(e.diagnostics()[0].check, "comb-cycle");
}

TEST(Diagnostics, TextRendererFormat) {
    lint::DiagnosticEngine e;
    e.report(lint::Severity::Error, "net-undriven", "net 'b' has no driver",
             {"bad.bench", 4}, "b");
    e.report(lint::Severity::Warning, "fanin-excessive", "wide gate");
    const std::string text = lint::render_text(e.diagnostics());
    EXPECT_NE(text.find("bad.bench:4: error: [net-undriven] net 'b' has no "
                        "driver"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("warning: [fanin-excessive] wide gate"),
              std::string::npos)
        << text;
}

TEST(Diagnostics, JsonRendererIsWellFormedAndEscapes) {
    lint::DiagnosticEngine e;
    e.report(lint::Severity::Error, "bench-syntax",
             "tricky \"quoted\"\nnewline \t tab \\ backslash",
             {"weird \"name\".bench", 2}, "a\\b");
    e.report(lint::Severity::Info, "fault-structurally-untestable", "plain");
    const std::string json = lint::render_json(e.diagnostics());
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"check\": \"bench-syntax\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
    EXPECT_EQ(json.find('\n'), std::string::npos) << "raw newline leaked";
}

TEST(Diagnostics, JsonRoundTripsThroughServiceParser) {
    // The syntax checker above proves well-formedness; this proves the
    // *values* survive: decode with the strict RFC 8259 parser the service
    // daemon uses and compare every field byte for byte.
    const std::string nasty =
        "we\"ird\\name\nwith\tcontrol\x01 and \"both\" \\\\ doubled";
    lint::DiagnosticEngine e;
    e.report(lint::Severity::Error, "net-undriven",
             "net '" + nasty + "' has no driver", {nasty + ".bench", 7},
             nasty);
    const std::string json = lint::render_json(e.diagnostics());
    const service::Json doc = service::parse_json(json);
    const auto& items = doc.get("diagnostics")->items();
    ASSERT_EQ(items.size(), 1u);
    const service::Json& d = items[0];
    EXPECT_EQ(d.get("check")->as_string(), "net-undriven");
    EXPECT_EQ(d.get("severity")->as_string(), "error");
    EXPECT_EQ(d.get("object")->as_string(), nasty);
    EXPECT_EQ(d.get("message")->as_string(), "net '" + nasty + "' has no driver");
    EXPECT_EQ(d.get("file")->as_string(), nasty + ".bench");
    EXPECT_EQ(d.get("line")->as_int(), 7);
    EXPECT_EQ(doc.get("counts")->get("error")->as_int(), 1);
}

TEST(Diagnostics, JsonRoundTripsAdversarialBenchNetNames) {
    // End to end through the .bench text scan: a .bench whose net names
    // carry quotes and backslashes must come back intact after a JSON
    // encode/decode cycle — the path the --json CLI output takes.
    lint::DiagnosticEngine e;
    lint::lint_bench_text(
        "INPUT(a)\nOUTPUT(y)\ny = AND(a, we\"ird\\)\n", "adv\"path\\.bench",
        e);
    ASSERT_GT(e.errors(), 0u);
    const service::Json doc =
        service::parse_json(lint::render_json(e.diagnostics()));
    bool found = false;
    for (const service::Json& d : doc.get("diagnostics")->items()) {
        if (d.get("check")->as_string() != "net-undriven") continue;
        found = true;
        EXPECT_EQ(d.get("object")->as_string(), "we\"ird\\");
        EXPECT_EQ(d.get("file")->as_string(), "adv\"path\\.bench");
    }
    EXPECT_TRUE(found);
}

// -------------------------------------------------------- bench fixtures

TEST(LintBench, FlagsUndrivenNet) {
    const auto r = lint_bench_fixture("bad_undriven.bench");
    EXPECT_FALSE(r.ok());
    const auto* d = find_check(r, "net-undriven");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Error);
    EXPECT_EQ(d->object, "ghost");
    EXPECT_EQ(d->loc.file, "bad_undriven.bench");
    EXPECT_EQ(d->loc.line, 3);
}

TEST(LintBench, FlagsMultiDrivenNet) {
    const auto r = lint_bench_fixture("bad_multidriven.bench");
    EXPECT_FALSE(r.ok());
    const auto* d = find_check(r, "net-multi-driven");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->object, "y");
    EXPECT_EQ(d->loc.line, 5);
}

TEST(LintBench, FlagsCombinationalCycle) {
    const auto r = lint_bench_fixture("bad_cycle.bench");
    EXPECT_FALSE(r.ok());
    const auto* d = find_check(r, "comb-cycle");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("->"), std::string::npos) << d->message;
    EXPECT_NE(d->message.find("u"), std::string::npos);
    EXPECT_NE(d->message.find("v"), std::string::npos);
    EXPECT_GT(d->loc.line, 0);
}

TEST(LintBench, FlagsEverySyntaxErrorNotJustTheFirst) {
    const auto r = lint_bench_fixture("bad_syntax.bench");
    size_t syntax = 0;
    for (const auto& d : r.diagnostics)
        if (d.check == "bench-syntax") ++syntax;
    // Unknown gate type at line 4 AND the malformed line 5: the scan
    // reports both where the strict parser throws the first.
    EXPECT_GE(syntax, 2u);
    const auto* d = find_check(r, "bench-syntax");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->loc.line, 4);
}

TEST(LintBench, FlagsGateArity) {
    // The arity rule Circuit::add_gate applies, reported at each gate.
    const auto r = lint_bench_fixture("bad_arity.bench");
    std::vector<std::pair<std::string, int>> arity;
    for (const auto& d : r.diagnostics)
        if (d.check == "bench-syntax") arity.emplace_back(d.object, d.loc.line);
    EXPECT_EQ(arity, (std::vector<std::pair<std::string, int>>{{"y", 5},
                                                                {"z", 6}}));
    EXPECT_EQ(r.errors, 2u) << lint::render_text(r.diagnostics);
}

TEST(LintBench, FlagsOutputConflicts) {
    const auto r = lint_bench_fixture("bad_output_conflict.bench");
    size_t conflicts = 0;
    for (const auto& d : r.diagnostics)
        if (d.check == "output-conflict") ++conflicts;
    EXPECT_EQ(conflicts, 2u);  // duplicate OUTPUT(y) + INPUT/OUTPUT 'a'
    EXPECT_FALSE(r.ok());
}

TEST(LintBench, FlagsDanglingNet) {
    const auto r = lint_bench_fixture("bad_dangling.bench");
    EXPECT_FALSE(r.ok());
    const auto* d = find_check(r, "output-dangling");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Error);
    EXPECT_EQ(d->object, "dead");
}

TEST(LintBench, FlagsUnreachableCone) {
    const auto r = lint_bench_fixture("bad_unreachable.bench");
    const auto* d = find_check(r, "gate-unreachable");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Warning);
    EXPECT_EQ(d->object, "u");
    // The cone's dead endpoint is the error; 'u' itself is the warning.
    EXPECT_TRUE(has_check(r, "output-dangling"));
}

TEST(LintBench, FlagsExcessiveFanin) {
    const auto r = lint_bench_fixture("bad_fanin.bench");
    const auto* d = find_check(r, "fanin-excessive");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Warning);
    EXPECT_EQ(d->object, "y");
    // A raised threshold silences it.
    lint::LintOptions wide;
    wide.max_fanin = 16;
    EXPECT_FALSE(has_check(lint_bench_fixture("bad_fanin.bench", wide),
                           "fanin-excessive"));
}

TEST(LintBench, CleanFixturePassesAllSweeps) {
    const auto r = lint_bench_fixture("c17.bench");
    EXPECT_TRUE(r.ok()) << lint::render_text(r.diagnostics);
    EXPECT_EQ(r.warnings, 0u) << lint::render_text(r.diagnostics);
}

TEST(LintBench, SuppressionDropsTheFinding) {
    lint::LintOptions opts;
    opts.suppress = "net-undriven";
    const auto r = lint_bench_fixture("bad_undriven.bench", opts);
    EXPECT_FALSE(has_check(r, "net-undriven"));
    EXPECT_GE(r.suppressed, 1u);
    // The text still builds no circuit, so no sweep runs after the scan.
    EXPECT_TRUE(r.diagnostics.empty()) << lint::render_text(r.diagnostics);
}

// -------------------------------------------------------- rules fixtures

TEST(LintRules, FlagsOverlappingBins) {
    const auto r = lint_rules_fixture("bad_overlap.rules");
    EXPECT_FALSE(r.ok());
    const auto* d = find_check(r, "rules-overlapping-bins");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Error);
    EXPECT_EQ(d->loc.file, "bad_overlap.rules");
    EXPECT_EQ(d->loc.line, 7);  // the second (overlapping) sizebin line
}

TEST(LintRules, FlagsUnnormalizedMass) {
    const auto r = lint_rules_fixture("bad_unnormalized.rules");
    EXPECT_TRUE(r.ok());  // a warning, not an error
    const auto* d = find_check(r, "rules-density-unnormalized");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Warning);
    EXPECT_NE(d->message.find("0.6"), std::string::npos) << d->message;
}

TEST(LintRules, FlagsBadClustering) {
    const auto r = lint_rules_fixture("bad_clustering.rules");
    EXPECT_FALSE(r.ok());
    // The unnormalized region map is the error; the implausibly small
    // wafer shape additionally warns.  Both carry the fixture location
    // (the first cluster_* directive line).
    const lint::Diagnostic* sum = nullptr;
    const lint::Diagnostic* tiny = nullptr;
    for (const lint::Diagnostic& d : r.diagnostics) {
        if (d.check != "rules-bad-clustering") continue;
        if (d.severity == lint::Severity::Error) sum = &d;
        if (d.severity == lint::Severity::Warning) tiny = &d;
    }
    ASSERT_NE(sum, nullptr);
    EXPECT_NE(sum->message.find("sum to 0.8"), std::string::npos)
        << sum->message;
    EXPECT_EQ(sum->loc.file, "bad_clustering.rules");
    EXPECT_EQ(sum->loc.line, 6);
    ASSERT_NE(tiny, nullptr);
    EXPECT_NE(tiny->message.find("cluster_wafer"), std::string::npos)
        << tiny->message;
}

TEST(LintRules, FlagsInMemoryBadClusterAlpha) {
    // In-memory decks bypass the parser's structural checks entirely, so
    // the lint layer must catch a nonsensical shape on its own.
    auto stats = extract::DefectStatistics::cmos_bridging_dominant();
    stats.clustering.kind = model::DefectStatsModel::Kind::NegBin;
    stats.clustering.alpha = -1.0;
    lint::DiagnosticEngine e;
    lint::lint_rules(stats, e);
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.diagnostics()[0].check, "rules-bad-clustering");
}

TEST(LintRules, CleanClusteredDeckPassesAndRoundTrips) {
    const auto r = lint_rules_fixture("clean_clustered.rules");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.warnings, 0u);
    const auto stats =
        extract::parse_defect_rules(read_fixture("clean_clustered.rules"));
    EXPECT_EQ(stats.clustering.describe(),
              "hier:wafer=4;region=0.5@2;region=0.5@0");
    EXPECT_EQ(stats.clustering_line, 6);
}

TEST(LintRules, CleanDecksPass) {
    for (const char* name : {"cmos_bridging.rules", "clean_sizebins.rules"}) {
        const auto r = lint_rules_fixture(name);
        EXPECT_TRUE(r.ok()) << name;
        EXPECT_EQ(r.warnings, 0u) << name;
    }
}

TEST(LintRules, FlagsInMemoryValueErrors) {
    auto stats = extract::DefectStatistics::cmos_bridging_dominant();
    stats.pinhole_density = -1.0;
    lint::DiagnosticEngine e;
    lint::lint_rules(stats, e);
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.diagnostics()[0].check, "rules-density-unnormalized");
}

TEST(LintRules, SizebinParsesAndRoundTrips) {
    const auto stats =
        extract::parse_defect_rules(read_fixture("clean_sizebins.rules"));
    ASSERT_EQ(stats.size_bins.size(), 2u);
    EXPECT_DOUBLE_EQ(stats.size_bins[0].lo, 2.0);
    EXPECT_DOUBLE_EQ(stats.size_bins[0].hi, 4.0);
    EXPECT_DOUBLE_EQ(stats.size_bins[0].prob, 0.6);
    const auto again = extract::parse_defect_rules(extract::to_rules(stats));
    ASSERT_EQ(again.size_bins.size(), 2u);
    EXPECT_DOUBLE_EQ(again.size_bins[1].hi, stats.size_bins[1].hi);
    EXPECT_DOUBLE_EQ(again.size_bins[1].prob, stats.size_bins[1].prob);
}

// ----------------------------------------------------------- fault sweep

TEST(LintFaults, CleanCollapsePassesCrossValidation) {
    const netlist::Circuit c = netlist::build_c17();
    const auto collapsed =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    lint::DiagnosticEngine e;
    lint::lint_faults(c, collapsed, e);
    EXPECT_TRUE(e.ok()) << lint::render_text(e.diagnostics());
    EXPECT_FALSE(has_check(lint::make_report(e),
                           "fault-equivalence-violation"));
}

TEST(LintFaults, DetectsLostClass) {
    const netlist::Circuit c = netlist::build_c17();
    auto collapsed =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    collapsed.pop_back();  // drop one representative -> its class is lost
    lint::DiagnosticEngine e;
    lint::lint_faults(c, collapsed, e);
    EXPECT_FALSE(e.ok());
    const lint::LintReport r = lint::make_report(e);
    const auto* d = find_check(r, "fault-equivalence-violation");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("lost"), std::string::npos) << d->message;
}

TEST(LintFaults, DetectsDoubleCountedClass) {
    const netlist::Circuit c = netlist::build_c17();
    auto collapsed =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));
    const auto universe = gatesim::full_fault_universe(c);
    // Add a second member of the first representative's class: any
    // universe fault equivalent to it but not already in the list.
    const auto cls = gatesim::equivalence_classes(c, universe);
    size_t extra = universe.size();
    for (size_t i = 0; i < universe.size(); ++i) {
        if (cls[i] != 0) continue;
        const auto& f = universe[i];
        const bool present =
            std::any_of(collapsed.begin(), collapsed.end(),
                        [&](const gatesim::StuckAtFault& g) {
                            return g.net == f.net && g.reader == f.reader &&
                                   g.pin == f.pin &&
                                   g.stuck_value == f.stuck_value;
                        });
        if (!present) {
            extra = i;
            break;
        }
    }
    ASSERT_LT(extra, universe.size()) << "class 0 has a single member";
    collapsed.push_back(universe[extra]);
    lint::DiagnosticEngine e;
    lint::lint_faults(c, collapsed, e);
    EXPECT_FALSE(e.ok());
    const lint::LintReport r = lint::make_report(e);
    const auto* d = find_check(r, "fault-equivalence-violation");
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("double-counted"), std::string::npos)
        << d->message;
}

TEST(LintFaults, FlagsStructurallyUntestableFaults) {
    const auto r = lint_bench_fixture("bad_dangling.bench");
    const auto* d = find_check(r, "fault-structurally-untestable");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->severity, lint::Severity::Warning);
    // Plus the one Info summary with the coverage bound.
    bool info_summary = false;
    for (const auto& di : r.diagnostics)
        if (di.check == "fault-structurally-untestable" &&
            di.severity == lint::Severity::Info &&
            di.message.find("bounded") != std::string::npos)
            info_summary = true;
    EXPECT_TRUE(info_summary);
}

// ------------------------------------------------------------ flow gate

netlist::Circuit circuit_with_dangling_gate() {
    netlist::Circuit c("dangling");
    const auto a = c.add_input("a");
    const auto b = c.add_input("b");
    const auto y = c.add_gate(netlist::GateType::And, "y", {a, b});
    c.add_gate(netlist::GateType::Not, "dead", {a});
    c.mark_output(y);
    return c;
}

TEST(FlowGate, PrepareFailsFastOnBadCircuit) {
    flow::ExperimentRunner runner(circuit_with_dangling_gate());
    EXPECT_THROW(runner.prepare(), lint::LintError);
    try {
        runner.prepare();
    } catch (const lint::LintError& e) {
        EXPECT_FALSE(e.report().ok());
        EXPECT_NE(std::string(e.what()).find("output-dangling"),
                  std::string::npos)
            << e.what();
    }
    // The cached result still carries the diagnostics after the throw.
    const flow::ExperimentResult& r = runner.fit();
    EXPECT_FALSE(r.lint.ok());
    ASSERT_TRUE(r.interruption.has_value());
    EXPECT_EQ(r.interruption->stage, "lint");
    EXPECT_EQ(r.interruption->reason, support::StopReason::LintFailed);
    EXPECT_EQ(r.vector_count, 0);
}

TEST(FlowGate, PrepareFailsFastOnBadRules) {
    flow::ExperimentOptions opts;
    opts.defects.pinhole_density = -0.5;
    flow::ExperimentRunner runner(netlist::build_c17(), opts);
    EXPECT_THROW(runner.prepare(), lint::LintError);
    const auto report = runner.lint_report();
    EXPECT_TRUE(has_check(report, "rules-density-unnormalized"));
}

TEST(FlowGate, SuppressionLetsTheRunThrough) {
    flow::ExperimentOptions opts;
    opts.lint.suppress = "output-dangling, fault-structurally-untestable, "
                         "gate-unreachable";
    flow::ExperimentRunner runner(circuit_with_dangling_gate(), opts);
    EXPECT_NO_THROW(runner.prepare());
    EXPECT_GE(runner.lint_report().suppressed, 1u);
}

TEST(FlowGate, DisableFlagSkipsTheGate) {
    flow::ExperimentOptions opts;
    opts.lint_enabled = false;
    flow::ExperimentRunner runner(circuit_with_dangling_gate(), opts);
    EXPECT_NO_THROW(runner.prepare());
    EXPECT_TRUE(runner.lint_report().diagnostics.empty());
}

TEST(FlowGate, EnvKnobDisablesTheGate) {
    ::setenv("DLPROJ_LINT", "off", 1);
    flow::ExperimentRunner runner(circuit_with_dangling_gate());
    ::unsetenv("DLPROJ_LINT");
    EXPECT_NO_THROW(runner.prepare());
    EXPECT_FALSE(runner.options().lint_enabled);
}

TEST(FlowGate, CleanRunRecordsEmptyReportOnResult) {
    flow::ExperimentOptions opts;
    opts.atpg.max_random = 64;
    flow::ExperimentRunner runner(netlist::build_c17(), opts);
    const flow::ExperimentResult& r = runner.run();
    EXPECT_TRUE(r.lint.ok());
    EXPECT_FALSE(r.interruption.has_value());
    EXPECT_GT(r.vector_count, 0);
}

}  // namespace
