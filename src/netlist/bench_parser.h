// Reader/writer for the ISCAS-85 / LGSynth ".bench" netlist format:
//
//   # comment
//   INPUT(1)
//   OUTPUT(22)
//   10 = NAND(1, 3)
//
// Gates are topologically sorted on load, so forward references are allowed.
//
// This file owns the .bench grammar.  scan_bench reads a whole text, keeps
// going past problems, and lists every finding; parse_bench throws the
// first finding, and lint::lint_bench_text reports them all, so the strict
// parser and the linter cannot disagree about what a text means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.h"

namespace dlp::netlist {

/// What a .bench finding is about (lint maps each kind to one check id).
enum class BenchFindingKind : std::uint8_t {
    Syntax,          ///< malformed line, unknown gate type, bad gate arity
    MultiDriven,     ///< a second INPUT or gate driving the same net
    OutputConflict,  ///< duplicate OUTPUT, or a net both INPUT and OUTPUT
    Undriven,        ///< a fanin or OUTPUT that no line drives
    Cycle,           ///< a combinational cycle (one per DFS back edge)
};

struct BenchFinding {
    BenchFindingKind kind = BenchFindingKind::Syntax;
    int line = 0;
    std::string object;  ///< the net concerned; empty for malformed lines
    std::string message;
};

/// An INPUT or OUTPUT declaration.
struct BenchDecl {
    std::string name;
    int line = 0;
};

/// A gate line that tokenized ("<out> = TYPE(a, b, ...)", known TYPE).
struct BenchGate {
    std::string out;
    GateType type = GateType::Buf;
    std::vector<std::string> fanin;
    int line = 0;
};

/// Everything one read of a .bench text yields, in file order.
struct BenchScan {
    std::vector<BenchDecl> inputs;
    std::vector<BenchDecl> outputs;
    std::vector<BenchGate> gates;
    /// Malformed lines in line order, then gate arity, drivers, OUTPUT
    /// conflicts, undriven nets and cycles.  Empty iff the text builds a
    /// circuit.
    std::vector<BenchFinding> findings;
};

/// Reads .bench text.  A malformed line is recorded and skipped; gate
/// arity is checked with the rule Circuit::add_gate applies
/// (netlist::arity_error); the name graph is then checked for multiple
/// drivers, OUTPUT conflicts, undriven nets and combinational cycles
/// (iterative DFS, each back edge reported with its path).
BenchScan scan_bench(const std::string& text);

/// Builds the circuit a scan describes.  Throws the first finding as
/// support::ParseError ("bench:<line>: <message>", a std::runtime_error).
/// Gates are emitted in repeated passes over file order, each as soon as
/// its fanins exist, so NetIds follow the text.
Circuit parse_bench(const BenchScan& scan, std::string circuit_name);

/// parse_bench(scan_bench(text), circuit_name).
Circuit parse_bench(const std::string& text, std::string circuit_name);

/// Loads a .bench file from disk.
Circuit load_bench_file(const std::string& path);

/// Serializes a circuit back to .bench text (round-trips with parse_bench).
std::string to_bench(const Circuit& circuit);

/// Writes to_bench(circuit) to a file (e.g. the golden data/c432.bench
/// fixture).  Throws std::runtime_error on I/O failure.
void write_bench(const Circuit& circuit, const std::string& path);

}  // namespace dlp::netlist
