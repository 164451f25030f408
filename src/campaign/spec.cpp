#include "campaign/spec.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "extract/rules_parser.h"
#include "model/defect_stats_model.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"

namespace dlp::campaign {

namespace {

std::string trim(const std::string& s) {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::vector<std::string> split_list(const std::string& s) {
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(s);
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

[[noreturn]] void fail(int line, const std::string& what) {
    throw std::runtime_error("campaign spec:" + std::to_string(line) + ": " +
                             what);
}

// Value errors carry no location: parse_campaign_spec prefixes the spec
// line, and dlproj_campaign names the flag that carried the value.
[[noreturn]] void reject(const std::string& what) {
    throw std::runtime_error(what);
}

long long parse_int(const std::string& v) {
    try {
        size_t pos = 0;
        const long long n = std::stoll(v, &pos);
        if (pos != v.size()) reject("trailing junk in integer '" + v + "'");
        return n;
    } catch (const std::runtime_error&) {
        throw;
    } catch (const std::exception&) {
        reject("expected an integer, got '" + v + "'");
    }
}

double parse_double(const std::string& v) {
    try {
        size_t pos = 0;
        const double d = std::stod(v, &pos);
        if (pos != v.size()) reject("trailing junk in number '" + v + "'");
        return d;
    } catch (const std::runtime_error&) {
        throw;
    } catch (const std::exception&) {
        reject("expected a number, got '" + v + "'");
    }
}

bool parse_bool(const std::string& v) {
    if (v == "true" || v == "on" || v == "1") return true;
    if (v == "false" || v == "off" || v == "0") return false;
    reject("expected a boolean (true/false/on/off/1/0), got '" + v + "'");
}

/// Applies one `key = value` line of `section` to `spec`.
void set_key(CampaignSpec& spec, const std::string& section,
             const std::string& key, const std::string& value,
             std::vector<std::string>& atpg_selection) {
    if (section == "campaign") {
        if (key == "name")
            spec.name = value;
        else if (key == "target_yield")
            spec.target_yield = parse_double(value);
        else if (key == "max_vectors")
            spec.max_vectors = parse_int(value);
        else if (key == "weighted")
            spec.weighted = parse_bool(value);
        else if (key == "lint")
            spec.lint = parse_bool(value);
        else
            reject("unknown [campaign] key '" + key + "'");
    } else if (section == "grid") {
        if (key == "circuits")
            spec.circuits = split_list(value);
        else if (key == "rules")
            spec.rules = split_list(value);
        else if (key == "seeds") {
            spec.seeds.clear();
            for (const std::string& v : split_list(value))
                spec.seeds.push_back(
                    static_cast<std::uint64_t>(parse_int(v)));
        } else if (key == "atpg")
            atpg_selection = split_list(value);
        else if (key == "ndetect" || key == "analysis" ||
                 key == "defect_stats")
            set_grid_axis(spec, key, value);
        else
            reject("unknown [grid] key '" + key + "'");
    } else if (section.rfind("atpg.", 0) == 0) {
        atpg::TestGenOptions& o = spec.atpg.back().options;
        if (key == "random_block")
            o.random_block = static_cast<int>(parse_int(value));
        else if (key == "max_random")
            o.max_random = static_cast<int>(parse_int(value));
        else if (key == "stale_blocks")
            o.stale_blocks = static_cast<int>(parse_int(value));
        else if (key == "backtrack_limit")
            o.backtrack_limit = static_cast<int>(parse_int(value));
        else if (key == "ndetect_mix") {
            try {
                o.ndetect_mix = atpg::parse_ndetect_mix(value);
            } catch (const std::invalid_argument& e) {
                reject(e.what());
            }
        } else
            reject("unknown [" + section + "] key '" + key + "'");
    } else {
        reject("key outside any section");
    }
}

bool ends_with(const std::string& s, const char* suffix) {
    const std::string suf(suffix);
    return s.size() >= suf.size() &&
           s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/// Parses "<prefix><N>" into N; -1 when `name` does not match.
int int_suffix(const std::string& name, const char* prefix) {
    const std::string pre(prefix);
    if (name.size() <= pre.size() || name.compare(0, pre.size(), pre) != 0)
        return -1;
    int n = 0;
    for (size_t i = pre.size(); i < name.size(); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9') return -1;
        n = n * 10 + (c - '0');
    }
    return n;
}

}  // namespace

Cell cell_at(const CampaignSpec& spec, std::size_t index) {
    const std::size_t nd = spec.defect_stats.size();
    const std::size_t nz = spec.analysis.size();
    const std::size_t nn = spec.ndetect.size();
    const std::size_t na = spec.atpg.size();
    const std::size_t ns = spec.seeds.size();
    const std::size_t nr = spec.rules.size();
    Cell c;
    c.index = index;
    // Newest axis innermost: a spec without it enumerates as before.
    c.defect_stats = spec.defect_stats[index % nd];
    index /= nd;
    c.analysis = spec.analysis[index % nz] != 0;
    index /= nz;
    c.ndetect = spec.ndetect[index % nn];
    index /= nn;
    c.atpg = spec.atpg[index % na].name;
    index /= na;
    c.seed = spec.seeds[index % ns];
    index /= ns;
    c.rules = spec.rules[index % nr];
    index /= nr;
    c.circuit = spec.circuits.at(index);
    return c;
}

const AtpgVariant& atpg_variant(const CampaignSpec& spec,
                                const std::string& name) {
    for (const AtpgVariant& v : spec.atpg)
        if (v.name == name) return v;
    throw std::runtime_error("unknown ATPG variant '" + name + "'");
}

void set_grid_axis(CampaignSpec& spec, const std::string& key,
                   const std::string& list) {
    const std::vector<std::string> items = split_list(list);
    if (items.empty()) reject("[grid] " + key + " is empty");
    if (key == "ndetect") {
        spec.ndetect.clear();
        for (const std::string& v : items) {
            const long long n = parse_int(v);
            if (n < 1 || n > 64)
                reject("ndetect target out of range [1, 64]: '" + v + "'");
            spec.ndetect.push_back(static_cast<int>(n));
        }
    } else if (key == "analysis") {
        spec.analysis.clear();
        for (const std::string& v : items)
            spec.analysis.push_back(parse_bool(v) ? 1 : 0);
    } else if (key == "defect_stats") {
        spec.defect_stats.clear();
        for (const std::string& v : items) {
            // Canonicalize through the model parser so equal backends
            // spelled differently ("negbin:inf" vs "poisson") land on one
            // cache key.
            try {
                spec.defect_stats.push_back(
                    model::parse_defect_stats(v).describe());
            } catch (const std::invalid_argument& e) {
                reject(e.what());
            }
        }
    } else {
        reject("unknown [grid] axis '" + key + "'");
    }
}

CampaignSpec parse_campaign_spec(const std::string& text) {
    CampaignSpec spec;
    spec.seeds.clear();
    spec.atpg.clear();
    std::vector<std::string> atpg_selection;  // [grid] atpg = ...

    std::istringstream in(text);
    std::string raw;
    std::string section;
    int line = 0;
    while (std::getline(in, raw)) {
        ++line;
        const size_t hash = raw.find('#');
        if (hash != std::string::npos) raw.erase(hash);
        const std::string s = trim(raw);
        if (s.empty()) continue;
        if (s.front() == '[') {
            if (s.back() != ']') fail(line, "unterminated section header");
            section = trim(s.substr(1, s.size() - 2));
            if (section.rfind("atpg.", 0) == 0) {
                AtpgVariant v;
                v.name = section.substr(5);
                if (v.name.empty()) fail(line, "empty ATPG variant name");
                for (const AtpgVariant& prev : spec.atpg)
                    if (prev.name == v.name)
                        fail(line, "duplicate ATPG variant '" + v.name + "'");
                spec.atpg.push_back(std::move(v));
            } else if (section != "campaign" && section != "grid") {
                fail(line, "unknown section [" + section + "]");
            }
            continue;
        }
        const size_t eq = s.find('=');
        if (eq == std::string::npos) fail(line, "expected 'key = value'");
        const std::string key = trim(s.substr(0, eq));
        const std::string value = trim(s.substr(eq + 1));
        if (key.empty()) fail(line, "empty key");
        try {
            set_key(spec, section, key, value, atpg_selection);
        } catch (const std::runtime_error& e) {
            fail(line, e.what());
        }
    }

    if (spec.seeds.empty()) spec.seeds.push_back(1);
    if (!atpg_selection.empty()) {
        // The grid selects variants by name; "default" is always available.
        std::vector<AtpgVariant> selected;
        for (const std::string& name : atpg_selection) {
            bool found = false;
            for (const AtpgVariant& v : spec.atpg)
                if (v.name == name) {
                    selected.push_back(v);
                    found = true;
                    break;
                }
            if (!found && name == "default") {
                selected.push_back(AtpgVariant{});
                found = true;
            }
            if (!found)
                throw std::runtime_error(
                    "campaign spec: [grid] atpg names undefined variant '" +
                    name + "'");
        }
        spec.atpg = std::move(selected);
    }
    if (spec.atpg.empty()) spec.atpg.push_back(AtpgVariant{});
    if (spec.circuits.empty())
        throw std::runtime_error("campaign spec: [grid] circuits is empty");
    if (spec.rules.empty())
        throw std::runtime_error("campaign spec: [grid] rules is empty");
    return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_campaign_spec(buf.str());
}

netlist::Circuit resolve_circuit(const std::string& name) {
    if (ends_with(name, ".bench")) return netlist::load_bench_file(name);
    if (name == "c17") return netlist::build_c17();
    if (name == "c432") return netlist::build_c432();
    if (int n = int_suffix(name, "adder"); n > 0)
        return netlist::build_ripple_adder(n);
    if (int n = int_suffix(name, "parity"); n > 1)
        return netlist::build_parity_tree(n);
    if (int n = int_suffix(name, "mux"); n > 0)
        return netlist::build_mux_tree(n);
    if (int n = int_suffix(name, "decoder"); n > 0)
        return netlist::build_decoder(n);
    if (int n = int_suffix(name, "alu"); n > 0) return netlist::build_alu(n);
    if (int n = int_suffix(name, "hamming"); n > 0)
        return netlist::build_hamming_corrector(n);
    throw std::runtime_error("unknown campaign circuit '" + name +
                             "' (builders.h name or a .bench path)");
}

extract::DefectStatistics resolve_rules(const std::string& name) {
    if (ends_with(name, ".rules")) return extract::load_defect_rules(name);
    if (name == "bridging" || name == "cmos_bridging_dominant")
        return extract::DefectStatistics::cmos_bridging_dominant();
    if (name == "open" || name == "open_dominant")
        return extract::DefectStatistics::open_dominant();
    if (name == "uniform") return extract::DefectStatistics::uniform();
    throw std::runtime_error("unknown campaign rule deck '" + name +
                             "' (bridging, open, uniform or a .rules path)");
}

Shard parse_shard(const std::string& text) {
    const size_t slash = text.find('/');
    if (slash == std::string::npos)
        throw std::runtime_error("shard must be of the form i/n: " + text);
    Shard s;
    try {
        s.index = std::stoi(text.substr(0, slash));
        s.count = std::stoi(text.substr(slash + 1));
    } catch (const std::exception&) {
        throw std::runtime_error("shard must be of the form i/n: " + text);
    }
    if (s.count < 1 || s.index < 0 || s.index >= s.count)
        throw std::runtime_error("shard index out of range: " + text);
    return s;
}

std::vector<std::size_t> shard_cells(std::size_t total, const Shard& shard) {
    std::vector<std::size_t> out;
    for (std::size_t c = static_cast<std::size_t>(shard.index); c < total;
         c += static_cast<std::size_t>(shard.count))
        out.push_back(c);
    return out;
}

}  // namespace dlp::campaign
