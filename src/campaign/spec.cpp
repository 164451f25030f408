#include "campaign/spec.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "extract/rules_parser.h"
#include "netlist/bench_parser.h"
#include "netlist/builders.h"
#include "support/parse.h"

namespace dlp::campaign {

namespace {

std::string trim(const std::string& s) {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
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

/// A [grid] list line: comma-separated items, blanks dropped, never empty.
std::vector<std::string> grid_list(const std::string& key,
                                   const std::string& value) {
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(value);
    while (std::getline(in, item, ',')) {
        item = trim(item);
        if (!item.empty()) out.push_back(item);
    }
    if (out.empty()) reject("[grid] " + key + " is empty");
    return out;
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
            spec.max_vectors = support::parse_int(value);
        else if (key == "weighted")
            spec.weighted = parse_bool(value);
        else if (key == "lint")
            spec.lint = parse_bool(value);
        else
            reject("unknown [campaign] key '" + key + "'");
    } else if (section == "grid") {
        if (key == "circuits")
            spec.circuits = grid_list(key, value);
        else if (key == "rules")
            spec.rules = grid_list(key, value);
        else if (key == "seeds") {
            spec.seeds.clear();
            for (const std::string& v : grid_list(key, value)) {
                const long long seed = support::parse_int(v);
                if (seed < 0) reject("negative seed '" + v + "'");
                spec.seeds.push_back(static_cast<std::uint64_t>(seed));
            }
        } else if (key == "atpg")
            atpg_selection = grid_list(key, value);
        else
            set_grid_axis(spec, key, value);
    } else if (section.rfind("atpg.", 0) == 0) {
        atpg::TestGenOptions& o = spec.atpg.back().options;
        if (key == "random_block")
            o.random_block = static_cast<int>(support::parse_int(value));
        else if (key == "max_random")
            o.max_random = static_cast<int>(support::parse_int(value));
        else if (key == "stale_blocks")
            o.stale_blocks = static_cast<int>(support::parse_int(value));
        else if (key == "backtrack_limit")
            o.backtrack_limit = static_cast<int>(support::parse_int(value));
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

bool parse_bool(const std::string& v) {
    if (v == "true" || v == "on" || v == "1") return true;
    if (v == "false" || v == "off" || v == "0") return false;
    reject("expected a boolean (true/false/on/off/1/0), got '" + v + "'");
}

std::size_t CampaignSpec::cell_count() const {
    std::size_t n =
        circuits.size() * rules.size() * seeds.size() * atpg.size();
    for (const std::vector<std::string>& items : axes) n *= items.size();
    return n;
}

Cell cell_at(const CampaignSpec& spec, std::size_t index) {
    Cell c;
    c.index = index;
    const auto pick = [&](std::size_t n) {
        const std::size_t i = index % n;
        index /= n;
        return i;
    };
    // The optional axes are innermost, the newest last: a spec without
    // one enumerates as before it existed.
    c.axes.resize(spec.axes.size());
    for (std::size_t a = spec.axes.size(); a-- > 0;)
        c.axes[a] = spec.axes[a][pick(spec.axes[a].size())];
    c.atpg = spec.atpg[pick(spec.atpg.size())].name;
    c.seed = spec.seeds[pick(spec.seeds.size())];
    c.rules = spec.rules[pick(spec.rules.size())];
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
    for (std::size_t a = 0; a < grid_axes().size(); ++a)
        if (key == grid_axes()[a].key) {
            std::vector<std::string> items = grid_list(key, list);
            for (std::string& i : items) i = grid_axes()[a].canonical(i);
            spec.axes[a] = std::move(items);
            return;
        }
    reject("unknown [grid] key '" + key + "'");
}

std::vector<std::size_t> swept_axes(const CampaignSpec& spec) {
    std::vector<std::size_t> swept;
    for (std::size_t a = 0; a < spec.axes.size(); ++a)
        for (const std::string& item : spec.axes[a])
            if (item != grid_axes()[a].classic) {
                swept.push_back(a);
                break;
            }
    return swept;
}

CampaignSpec parse_campaign_spec(const std::string& text) {
    CampaignSpec spec;
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

    if (!atpg_selection.empty()) {
        // The grid selects variants by name; "default" is always available.
        std::vector<AtpgVariant> selected;
        for (const std::string& name : atpg_selection) {
            const auto it = std::find_if(
                spec.atpg.begin(), spec.atpg.end(),
                [&](const AtpgVariant& v) { return v.name == name; });
            if (it == spec.atpg.end() && name != "default")
                throw std::runtime_error(
                    "campaign spec: [grid] atpg names undefined variant '" +
                    name + "'");
            selected.push_back(it != spec.atpg.end() ? *it : AtpgVariant{});
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
    if (name.ends_with(".bench")) return netlist::load_bench_file(name);
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
    if (name.ends_with(".rules")) return extract::load_defect_rules(name);
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
    long long index = 0;
    long long count = 0;
    try {
        index = support::parse_int(text.substr(0, slash));
        count = support::parse_int(text.substr(slash + 1));
    } catch (const std::runtime_error&) {
        throw std::runtime_error("shard must be of the form i/n: " + text);
    }
    if (count < 1 || count > std::numeric_limits<int>::max() || index < 0 ||
        index >= count)
        throw std::runtime_error("shard index out of range: " + text);
    return {static_cast<int>(index), static_cast<int>(count)};
}

std::vector<std::size_t> shard_cells(std::size_t total, const Shard& shard) {
    std::vector<std::size_t> out;
    for (std::size_t c = static_cast<std::size_t>(shard.index); c < total;
         c += static_cast<std::size_t>(shard.count))
        out.push_back(c);
    return out;
}

}  // namespace dlp::campaign
