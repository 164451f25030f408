#include "netlist/circuit.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace dlp::netlist {

const char* gate_type_name(GateType type) {
    switch (type) {
        case GateType::Input: return "INPUT";
        case GateType::Buf: return "BUF";
        case GateType::Not: return "NOT";
        case GateType::And: return "AND";
        case GateType::Nand: return "NAND";
        case GateType::Or: return "OR";
        case GateType::Nor: return "NOR";
        case GateType::Xor: return "XOR";
        case GateType::Xnor: return "XNOR";
    }
    return "?";
}

std::uint64_t eval_gate(GateType type, std::span<const std::uint64_t> fanin) {
    switch (type) {
        case GateType::Input:
            throw std::invalid_argument("cannot evaluate an Input gate");
        case GateType::Buf:
            return fanin[0];
        case GateType::Not:
            return ~fanin[0];
        case GateType::And:
        case GateType::Nand: {
            std::uint64_t v = ~0ULL;
            for (std::uint64_t f : fanin) v &= f;
            return type == GateType::And ? v : ~v;
        }
        case GateType::Or:
        case GateType::Nor: {
            std::uint64_t v = 0ULL;
            for (std::uint64_t f : fanin) v |= f;
            return type == GateType::Or ? v : ~v;
        }
        case GateType::Xor:
        case GateType::Xnor: {
            std::uint64_t v = 0ULL;
            for (std::uint64_t f : fanin) v ^= f;
            return type == GateType::Xor ? v : ~v;
        }
    }
    throw std::invalid_argument("unknown gate type");
}

const char* arity_error(GateType type, std::size_t arity) {
    switch (type) {
        case GateType::Input:
            return arity == 0 ? nullptr : "Input gates take no fanin";
        case GateType::Buf:
        case GateType::Not:
            return arity == 1 ? nullptr : "Buf/Not take exactly one fanin";
        default:
            return arity >= 2 ? nullptr : "multi-input gates need >= 2 fanins";
    }
}

NetId Circuit::add_input(std::string name) {
    const NetId id = static_cast<NetId>(gates_.size());
    gates_.push_back(Gate{GateType::Input, std::move(name), {}});
    inputs_.push_back(id);
    return id;
}

NetId Circuit::add_gate(GateType type, std::string name,
                        std::vector<NetId> fanin) {
    if (type == GateType::Input)
        throw std::invalid_argument("use add_input for primary inputs");
    if (const char* bad = arity_error(type, fanin.size()))
        throw std::invalid_argument(bad);
    for (NetId f : fanin)
        if (f >= gates_.size())
            throw std::invalid_argument("fanin net does not exist: " +
                                        std::to_string(f));
    const NetId id = static_cast<NetId>(gates_.size());
    gates_.push_back(Gate{type, std::move(name), std::move(fanin)});
    return id;
}

void Circuit::mark_output(NetId net) {
    if (net >= gates_.size())
        throw std::invalid_argument("output net does not exist");
    if (net >= is_output_.size()) is_output_.resize(gates_.size(), 0);
    if (is_output_[net]) return;
    is_output_[net] = 1;
    outputs_.push_back(net);
}

bool Circuit::is_output(NetId net) const {
    return net < is_output_.size() && is_output_[net] != 0;
}

NetId Circuit::find(const std::string& name) const {
    for (NetId i = 0; i < gates_.size(); ++i)
        if (gates_[i].name == name) return i;
    return kNoNet;
}

std::vector<std::vector<NetId>> Circuit::fanouts() const {
    std::vector<std::vector<NetId>> out(gates_.size());
    for (NetId g = 0; g < gates_.size(); ++g)
        for (NetId f : gates_[g].fanin) out[f].push_back(g);
    return out;
}

std::vector<int> Circuit::levels() const {
    std::vector<int> level(gates_.size(), 0);
    for (NetId g = 0; g < gates_.size(); ++g) {
        int lv = 0;
        for (NetId f : gates_[g].fanin) lv = std::max(lv, level[f] + 1);
        level[g] = lv;
    }
    return level;
}

int Circuit::depth() const {
    const auto lv = levels();
    return lv.empty() ? 0 : *std::max_element(lv.begin(), lv.end());
}

std::vector<std::string> Circuit::validate() const {
    std::vector<std::string> problems;
    std::unordered_set<std::string> names;
    for (const Gate& g : gates_)
        if (!names.insert(g.name).second)
            problems.push_back("duplicate net name: " + g.name);
    const auto fo = fanouts();
    for (NetId g = 0; g < gates_.size(); ++g) {
        if (fo[g].empty() && !is_output(g))
            problems.push_back("dangling net (no fanout, not a PO): " +
                               gates_[g].name);
        if (const char* bad =
                arity_error(gates_[g].type, gates_[g].fanin.size()))
            problems.push_back(gates_[g].name + ": " + bad);
    }
    if (outputs_.empty()) problems.push_back("circuit has no primary outputs");
    return problems;
}

std::vector<std::size_t> Circuit::type_histogram() const {
    std::vector<std::size_t> hist(
        static_cast<std::size_t>(GateType::Xnor) + 1, 0);
    for (const Gate& g : gates_) ++hist[static_cast<std::size_t>(g.type)];
    return hist;
}

}  // namespace dlp::netlist
