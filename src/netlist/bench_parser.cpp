#include "netlist/bench_parser.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "support/parse.h"

namespace dlp::netlist {

namespace {

std::string trim(const std::string& s) {
    size_t a = 0;
    size_t b = s.size();
    while (a < b && std::isspace(static_cast<unsigned char>(s[a]))) ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(s[b - 1]))) --b;
    return s.substr(a, b - a);
}

std::string upper(std::string s) {
    for (char& c : s)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
}

std::optional<GateType> type_from_string(const std::string& t) {
    const std::string u = upper(t);
    if (u == "BUF" || u == "BUFF") return GateType::Buf;
    if (u == "NOT" || u == "INV") return GateType::Not;
    if (u == "AND") return GateType::And;
    if (u == "NAND") return GateType::Nand;
    if (u == "OR") return GateType::Or;
    if (u == "NOR") return GateType::Nor;
    if (u == "XOR") return GateType::Xor;
    if (u == "XNOR") return GateType::Xnor;
    return std::nullopt;
}

/// Tokenizes one comment-stripped, trimmed, non-empty line into `scan`;
/// returns the syntax error, or "" when the line was taken.
std::string read_line(const std::string& line, int line_no, BenchScan& scan) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
        // INPUT(x) / OUTPUT(x)
        const size_t lp = line.find('(');
        const size_t rp = line.rfind(')');
        if (lp == std::string::npos || rp == std::string::npos || rp < lp)
            return "expected INPUT(...) or OUTPUT(...)";
        const std::string kw = upper(trim(line.substr(0, lp)));
        std::string arg = trim(line.substr(lp + 1, rp - lp - 1));
        if (arg.empty()) return "empty net name";
        if (kw == "INPUT")
            scan.inputs.push_back({std::move(arg), line_no});
        else if (kw == "OUTPUT")
            scan.outputs.push_back({std::move(arg), line_no});
        else
            return "unknown directive '" + kw + "'";
        return "";
    }

    BenchGate g;
    g.line = line_no;
    g.out = trim(line.substr(0, eq));
    const std::string rhs = trim(line.substr(eq + 1));
    const size_t lp = rhs.find('(');
    const size_t rp = rhs.rfind(')');
    if (g.out.empty() || lp == std::string::npos || rp == std::string::npos ||
        rp < lp)
        return "expected '<net> = TYPE(a, b, ...)'";
    const std::string type = trim(rhs.substr(0, lp));
    const std::optional<GateType> t = type_from_string(type);
    if (!t) return "unknown gate type '" + type + "'";
    g.type = *t;
    std::istringstream as(rhs.substr(lp + 1, rp - lp - 1));
    std::string token;
    while (std::getline(as, token, ',')) {
        token = trim(token);
        if (token.empty()) return "empty fanin name";
        g.fanin.push_back(token);
    }
    scan.gates.push_back(std::move(g));
    return "";
}

}  // namespace

BenchScan scan_bench(const std::string& text) {
    BenchScan scan;
    const auto report = [&](BenchFindingKind kind, int line,
                            const std::string& object, std::string message) {
        scan.findings.push_back({kind, line, object, std::move(message)});
    };

    std::istringstream in(text);
    std::string line_text;
    int line_no = 0;
    while (std::getline(in, line_text)) {
        ++line_no;
        const size_t hash = line_text.find('#');
        if (hash != std::string::npos) line_text.erase(hash);
        const std::string line = trim(line_text);
        if (line.empty()) continue;
        if (std::string bad = read_line(line, line_no, scan); !bad.empty())
            report(BenchFindingKind::Syntax, line_no, "", std::move(bad));
    }
    // Gate arity, by the rule Circuit::add_gate applies.  The gate still
    // drives its net, so its readers are not reported undriven.
    for (const BenchGate& g : scan.gates)
        if (const char* bad = arity_error(g.type, g.fanin.size()))
            report(BenchFindingKind::Syntax, g.line, g.out,
                   std::string(bad) + " ('" + g.out + "' has " +
                       std::to_string(g.fanin.size()) + ")");

    // Drivers: every INPUT declaration, then every gate output.
    std::unordered_map<std::string, int> driver_line;
    for (const auto& [name, line] : scan.inputs) {
        const auto [it, inserted] = driver_line.emplace(name, line);
        if (!inserted)
            report(BenchFindingKind::MultiDriven, line, name,
                   "duplicate INPUT(" + name + ") (first at line " +
                       std::to_string(it->second) + ")");
    }
    const std::unordered_map<std::string, int> input_line = driver_line;
    for (const BenchGate& g : scan.gates) {
        const auto [it, inserted] = driver_line.emplace(g.out, g.line);
        if (!inserted)
            report(BenchFindingKind::MultiDriven, g.line, g.out,
                   "net '" + g.out + "' driven twice (first driver at line " +
                       std::to_string(it->second) + ")");
    }

    // OUTPUT declarations: duplicates and INPUT/OUTPUT feedthroughs.
    std::unordered_map<std::string, int> output_line;
    for (const auto& [name, line] : scan.outputs) {
        const auto [it, inserted] = output_line.emplace(name, line);
        if (!inserted)
            report(BenchFindingKind::OutputConflict, line, name,
                   "duplicate OUTPUT(" + name + ") (first at line " +
                       std::to_string(it->second) + ")");
        else if (const auto in = input_line.find(name); in != input_line.end())
            report(BenchFindingKind::OutputConflict, line, name,
                   "net '" + name + "' declared both INPUT (line " +
                       std::to_string(in->second) +
                       ") and OUTPUT; feedthrough outputs carry no logic and "
                       "break the physical flow");
    }

    // Undriven references, one finding per net name.
    std::unordered_set<std::string> undriven;
    for (const BenchGate& g : scan.gates)
        for (const std::string& f : g.fanin)
            if (!driver_line.count(f) && undriven.insert(f).second)
                report(BenchFindingKind::Undriven, g.line, f,
                       "undefined net '" + f + "' in fanin of '" + g.out +
                           "'");
    for (const auto& [name, line] : scan.outputs)
        if (!driver_line.count(name) && undriven.insert(name).second)
            report(BenchFindingKind::Undriven, line, name,
                   "OUTPUT(" + name + ") never driven");

    // Combinational cycles: iterative DFS over the gate dependency graph
    // (edge gate -> fanin gate).  Each back edge reports one cycle with its
    // full path; cross/forward edges into finished nodes are skipped.
    const std::vector<BenchGate>& gates = scan.gates;
    std::unordered_map<std::string, size_t> gate_index;
    for (size_t i = 0; i < gates.size(); ++i)
        gate_index.emplace(gates[i].out, i);
    enum : std::uint8_t { kWhite, kGray, kBlack };
    std::vector<std::uint8_t> color(gates.size(), kWhite);
    struct Frame {
        size_t gate;
        size_t next_fanin;
    };
    for (size_t root = 0; root < gates.size(); ++root) {
        if (color[root] != kWhite) continue;
        std::vector<Frame> stack{{root, 0}};
        std::vector<size_t> path{root};
        color[root] = kGray;
        while (!stack.empty()) {
            Frame& top = stack.back();
            if (top.next_fanin >= gates[top.gate].fanin.size()) {
                color[top.gate] = kBlack;
                stack.pop_back();
                path.pop_back();
                continue;
            }
            const std::string& fname = gates[top.gate].fanin[top.next_fanin++];
            const auto it = gate_index.find(fname);
            if (it == gate_index.end()) continue;  // INPUT or undriven
            const size_t next = it->second;
            if (color[next] == kWhite) {
                color[next] = kGray;
                stack.push_back({next, 0});
                path.push_back(next);
            } else if (color[next] == kGray) {
                // Back edge: the cycle is the path suffix starting at next.
                std::string cyc;
                for (auto p = std::find(path.begin(), path.end(), next);
                     p != path.end(); ++p)
                    cyc += gates[*p].out + " -> ";
                report(BenchFindingKind::Cycle, gates[top.gate].line,
                       gates[next].out,
                       "combinational cycle: " + cyc + gates[next].out);
            }
        }
    }
    return scan;
}

Circuit parse_bench(const BenchScan& scan, std::string circuit_name) {
    if (!scan.findings.empty()) {
        const BenchFinding& first = scan.findings.front();
        throw support::ParseError("bench", first.line, first.message);
    }

    // Topological emission (forward references are legal in .bench).  A
    // clean scan has no undriven net and no cycle, so every pass emits.
    Circuit circuit(std::move(circuit_name));
    std::unordered_map<std::string, NetId> net_of;
    for (const BenchDecl& in : scan.inputs)
        net_of[in.name] = circuit.add_input(in.name);
    const std::vector<BenchGate>& raw = scan.gates;
    std::vector<bool> emitted(raw.size(), false);
    size_t remaining = raw.size();
    while (remaining > 0) {
        bool progress = false;
        for (size_t i = 0; i < raw.size(); ++i) {
            if (emitted[i]) continue;
            const BenchGate& g = raw[i];
            bool ready = true;
            for (const std::string& f : g.fanin)
                if (!net_of.count(f)) {
                    ready = false;
                    break;
                }
            if (!ready) continue;
            std::vector<NetId> fanin;
            fanin.reserve(g.fanin.size());
            for (const std::string& f : g.fanin) fanin.push_back(net_of[f]);
            net_of[g.out] = circuit.add_gate(g.type, g.out, std::move(fanin));
            emitted[i] = true;
            --remaining;
            progress = true;
        }
        if (!progress) throw std::logic_error("scan_bench missed a stall");
    }
    for (const BenchDecl& out : scan.outputs)
        circuit.mark_output(net_of.at(out.name));
    return circuit;
}

Circuit parse_bench(const std::string& text, std::string circuit_name) {
    return parse_bench(scan_bench(text), std::move(circuit_name));
}

Circuit load_bench_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string name = path;
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name.erase(0, slash + 1);
    const size_t dot = name.find_last_of('.');
    if (dot != std::string::npos) name.erase(dot);
    return parse_bench(buf.str(), name);
}

std::string to_bench(const Circuit& circuit) {
    std::ostringstream out;
    out << "# " << circuit.name() << "\n";
    for (NetId id : circuit.inputs())
        out << "INPUT(" << circuit.gate(id).name << ")\n";
    for (NetId id : circuit.outputs())
        out << "OUTPUT(" << circuit.gate(id).name << ")\n";
    for (const Gate& g : circuit.gates()) {
        if (g.type == GateType::Input) continue;
        out << g.name << " = " << gate_type_name(g.type) << "(";
        for (size_t i = 0; i < g.fanin.size(); ++i) {
            if (i) out << ", ";
            out << circuit.gate(g.fanin[i]).name;
        }
        out << ")\n";
    }
    return out.str();
}

void write_bench(const Circuit& circuit, const std::string& path) {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot open " + path);
    f << to_bench(circuit);
    if (!f) throw std::runtime_error("write failed: " + path);
}

}  // namespace dlp::netlist
