// dlproj_lint: standalone front end for the src/lint static analyzer.
//
//   dlproj_lint [options] <file.bench|file.rules>...
//
//   --json            emit the findings as a JSON document instead of text
//   --suppress=IDS    suppression config (comma/whitespace-separated check
//                     ids, trailing '*' wildcard; see docs/LINT.md)
//   --max-fanin=N     fanin-excessive threshold (default 10)
//   --werror          exit nonzero on warnings too, not just errors
//   --testability     additionally run the redundant-logic sweep
//                     (circuit-redundant-logic): prove faults untestable
//                     with the static implication engine and warn on each
//                     proof.  Much deeper than the SCOAP sweep and
//                     correspondingly slower, hence opt-in.
//
// Exit status: 0 clean, 1 findings at the failing severity, 2 usage or I/O
// error.  `.bench` files get one scan (netlist::scan_bench) that reports
// every text-level finding; only a text with none is built into a circuit
// for the circuit- and fault-level sweeps.  `.rules` files are parsed (a
// parse failure becomes a `rules-syntax` error at its line) and the deck
// sweep run.
#include <climits>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "extract/rules_parser.h"
#include "gatesim/faults.h"
#include "lint/checks.h"
#include "lint/diagnostics.h"
#include "support/parse.h"

namespace {

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--json] [--suppress=IDS] [--max-fanin=N] [--werror]"
                 " [--testability] <file.bench|file.rules>...\n";
    return 2;
}

bool read_file(const std::string& path, std::string& out) {
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

bool ends_with(const std::string& s, const char* suffix) {
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void lint_bench_file(const std::string& path, const std::string& text,
                     dlp::lint::DiagnosticEngine& engine,
                     const dlp::lint::LintOptions& options,
                     bool testability) {
    // One scan reports every text-level finding; only a clean text yields
    // the circuit the circuit- and fault-level sweeps need.
    const auto circuit = dlp::lint::lint_bench_text(text, path, engine);
    if (!circuit) return;
    dlp::lint::lint_circuit(*circuit, engine, options);
    const auto collapsed = dlp::gatesim::collapse_faults(
        *circuit, dlp::gatesim::full_fault_universe(*circuit));
    dlp::lint::lint_faults(*circuit, collapsed, engine);
    if (testability)
        dlp::lint::lint_redundant_logic(*circuit, collapsed, engine);
}

void lint_rules_file(const std::string& path, const std::string& text,
                     dlp::lint::DiagnosticEngine& engine) {
    dlp::extract::DefectStatistics stats;
    try {
        stats = dlp::extract::parse_defect_rules(text);
    } catch (const dlp::support::ParseError& e) {
        engine.report(dlp::lint::Severity::Error, "rules-syntax", e.message(),
                      {path, e.line()});
        return;
    }
    dlp::lint::lint_rules(stats, engine, path);
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    bool werror = false;
    bool testability = false;
    dlp::lint::LintOptions options;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--testability") {
            testability = true;
        } else if (arg.rfind("--suppress=", 0) == 0) {
            options.suppress = arg.substr(std::strlen("--suppress="));
        } else if (arg.rfind("--max-fanin=", 0) == 0) {
            try {
                options.max_fanin = static_cast<int>(dlp::support::parse_int(
                    arg.substr(std::strlen("--max-fanin=")), 0, INT_MAX));
            } catch (const std::runtime_error& e) {
                std::cerr << argv[0] << ": bad value in " << arg << ": "
                          << e.what() << "\n";
                return usage(argv[0]);
            }
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << argv[0] << ": unknown option " << arg << "\n";
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) return usage(argv[0]);

    dlp::lint::DiagnosticEngine engine{
        dlp::lint::SuppressionSet(options.suppress)};
    for (const std::string& path : files) {
        std::string text;
        if (!read_file(path, text)) {
            std::cerr << argv[0] << ": cannot open " << path << "\n";
            return 2;
        }
        if (ends_with(path, ".rules"))
            lint_rules_file(path, text, engine);
        else if (ends_with(path, ".bench"))
            lint_bench_file(path, text, engine, options, testability);
        else {
            std::cerr << argv[0] << ": " << path
                      << ": unknown file type (expected .bench or .rules)\n";
            return 2;
        }
    }

    if (json) {
        std::cout << dlp::lint::render_json(engine.diagnostics()) << "\n";
    } else {
        std::cout << dlp::lint::render_text(engine.diagnostics())
                  << dlp::lint::summary_line(engine) << "\n";
    }

    if (engine.errors() > 0) return 1;
    if (werror && engine.warnings() > 0) return 1;
    return 0;
}
