// The static-analysis sweeps (`dlproj-lint`): structural checks over the
// artifacts the experiment pipeline consumes, run before anything is
// simulated.  The motivation is the paper's eq. (11): the DL projection is
// only as trustworthy as its inputs — an undriven net, a dead logic cone
// or an overlapping defect-size bin silently skews Y, theta and the fitted
// R/theta_max.  These checks make such inputs fail fast with an actionable
// diagnostic instead of producing a wrong curve after hours of simulation.
//
// Four sweeps, one per artifact kind:
//   * lint_bench_text: every finding of netlist::scan_bench, the one
//     `.bench` reader (the strict parser throws the first of the same
//     findings), each with its line; a clean text yields the circuit the
//     other sweeps take.
//   * lint_circuit: reachability/observability over the in-memory Circuit,
//     reusing the SCOAP measures from src/atpg/scoap.h — a net with
//     infinite observability bounds the attainable coverage structurally.
//   * lint_rules: the defect rule deck (size-bin overlap/normalization,
//     in-memory value sanity the file parser cannot see).
//   * lint_faults: cross-validates that equivalence collapsing preserved
//     the class structure (exactly one representative per class — lost or
//     duplicated classes skew every weighted coverage number) and flags
//     structurally untestable faults.
//
// The check-id catalogue, severities and suppression syntax are documented
// in docs/LINT.md.
#pragma once

#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "analysis/untestable.h"
#include "extract/defect_stats.h"
#include "gatesim/faults.h"
#include "lint/diagnostics.h"
#include "netlist/circuit.h"

namespace dlp::lint {

struct LintOptions {
    /// Suppression config string (see SuppressionSet): check ids separated
    /// by commas/whitespace, trailing '*' wildcard.
    std::string suppress;
    /// fanin-excessive threshold: gates with more fanin pins are flagged
    /// (wide gates degrade layout and testability).
    int max_fanin = 10;
};

/// Reports every netlist::scan_bench finding of `.bench` source text as an
/// error under its check id: bench-syntax (malformed line, unknown gate
/// type, bad arity), net-multi-driven, output-conflict, net-undriven and
/// comb-cycle.  `file` tags the locations and names the circuit.  Returns
/// the parsed circuit when the scan found nothing (a suppressed finding
/// still stops the cascade), else nullopt.
std::optional<netlist::Circuit> lint_bench_text(const std::string& text,
                                                const std::string& file,
                                                DiagnosticEngine& engine);

/// Structural checks over an in-memory circuit: output-dangling (error),
/// gate-unreachable, fanin-excessive.  Uses SCOAP observability for the
/// reachability sweep.
void lint_circuit(const netlist::Circuit& circuit, DiagnosticEngine& engine,
                  const LintOptions& options = {});

/// Defect rule-deck checks: rules-overlapping-bins,
/// rules-density-unnormalized, rules-bad-clustering (invalid cluster_*
/// shapes, unnormalized region-fraction maps, degenerate hierarchies).
/// `file` tags diagnostic locations when the deck was loaded from disk.
void lint_rules(const extract::DefectStatistics& stats,
                DiagnosticEngine& engine, const std::string& file = {});

/// Fault-list checks over a collapsed stuck-at list:
/// fault-equivalence-violation (class lost / double-counted / unknown
/// fault) and fault-structurally-untestable (SCOAP-unobservable site).
void lint_faults(const netlist::Circuit& circuit,
                 std::span<const gatesim::StuckAtFault> collapsed,
                 DiagnosticEngine& engine);

/// Redundant-logic sweep (circuit-redundant-logic): proves faults
/// untestable with the static implication engine
/// (analysis::find_untestable) and reports one warning per proof — a
/// proven-untestable line is redundant logic that silently caps the
/// attainable coverage and biases the projected DL.  Much deeper than the
/// SCOAP sweep in lint_faults (which only sees structurally unobservable
/// sites), and correspondingly more expensive, so it is NOT part of
/// lint_circuit or the flow lint gate; dlproj_lint exposes it behind
/// --testability.  `options.budget` bounds the pass.
void lint_redundant_logic(const netlist::Circuit& circuit,
                          std::span<const gatesim::StuckAtFault> collapsed,
                          DiagnosticEngine& engine,
                          const analysis::AnalysisOptions& options = {});

/// Snapshot of an engine after the sweeps ran, as carried by
/// flow::ExperimentResult and LintError.
struct LintReport {
    std::vector<Diagnostic> diagnostics;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::size_t infos = 0;
    std::size_t suppressed = 0;

    bool ok() const { return errors == 0; }
};

LintReport make_report(const DiagnosticEngine& engine);

/// Thrown by flow::ExperimentRunner::prepare()/generate_tests() when a
/// lint sweep finds errors; what() is the rendered text, report() the
/// structured findings.
class LintError : public std::runtime_error {
public:
    LintError(const std::string& what, LintReport report)
        : std::runtime_error(what), report_(std::move(report)) {}

    const LintReport& report() const { return report_; }

private:
    LintReport report_;
};

/// The DLPROJ_LINT environment knob: "0"/"off"/"false" (any case) disable
/// the flow-level lint gate; anything else (or unset) leaves it on.
bool lint_enabled_from_env();

}  // namespace dlp::lint
