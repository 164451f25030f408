#include "campaign/artifacts.h"

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "campaign/store.h"

namespace dlp::campaign {

std::string double_hex(double v) {
    return hex64(std::bit_cast<std::uint64_t>(v));
}

double parse_double_hex(const std::string& hex) {
    if (hex.size() != 16)
        throw std::runtime_error("campaign artifact: bad double '" + hex +
                                 "'");
    std::uint64_t bits = 0;
    for (const char c : hex) {
        bits <<= 4;
        if (c >= '0' && c <= '9')
            bits |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            bits |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            throw std::runtime_error("campaign artifact: bad double '" + hex +
                                     "'");
    }
    return std::bit_cast<double>(bits);
}

namespace {

[[noreturn]] void bad(const std::string& what) {
    throw std::runtime_error("campaign artifact: " + what);
}

/// Keyword-checked token reader over a serialized artifact.
class Reader {
public:
    explicit Reader(const std::string& text)
        : in_(text), size_(text.size()) {}

    void magic(const char* expected) {
        std::string line;
        if (!std::getline(in_, line) || line != expected)
            bad(std::string("expected magic '") + expected + "'");
    }
    /// Reads "<key> <integer>".
    long long field(const char* key) {
        expect_key(key);
        long long v = 0;
        if (!(in_ >> v)) bad(std::string("bad integer for ") + key);
        return v;
    }
    /// Reads "<key> <count>" where every counted item takes at least one
    /// byte, so no count can exceed the bytes left: a corrupt count is a
    /// parse error, never a huge allocation.
    std::size_t count(const char* key) {
        const long long n = field(key);
        const std::streamoff pos = in_.tellg();
        const std::size_t left =
            pos < 0 ? 0 : size_ - static_cast<std::size_t>(pos);
        if (n < 0 || static_cast<unsigned long long>(n) > left)
            bad(std::string("bad count for ") + key);
        return static_cast<std::size_t>(n);
    }
    /// Reads "<key> <hex double>".
    double dfield(const char* key) {
        expect_key(key);
        std::string tok;
        if (!(in_ >> tok)) bad(std::string("missing value for ") + key);
        return parse_double_hex(tok);
    }
    /// Reads "<key> <rest of line>" (value may contain spaces).
    std::string sfield(const char* key) {
        expect_key(key);
        std::string rest;
        std::getline(in_, rest);
        if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
        return rest;
    }
    /// Reads "<key> <count>" then `count` whitespace-separated ints.
    std::vector<int> ints(const char* key) {
        std::vector<int> out(count(key));
        for (int& v : out)
            if (!(in_ >> v)) bad(std::string("truncated ") + key);
        return out;
    }
    /// Reads "<key> <count>" then `count` hex doubles.
    flow::CoverageCurve curve(const char* key) {
        std::vector<double> out(count(key));
        std::string tok;
        for (double& v : out) {
            if (!(in_ >> tok)) bad(std::string("truncated ") + key);
            v = parse_double_hex(tok);
        }
        return flow::CoverageCurve(std::move(out));
    }
    /// Reads "<key> <count>" then `count` "net reader pin value" lines
    /// (reader -1 for a stem fault).
    std::vector<gatesim::StuckAtFault> faults(const char* key) {
        std::vector<gatesim::StuckAtFault> out(count(key));
        for (auto& f : out) {
            long long net = 0, reader = 0, pin = 0, sv = 0;
            if (!(in_ >> net >> reader >> pin >> sv))
                bad("truncated fault list");
            f.net = static_cast<netlist::NetId>(net);
            f.reader = reader < 0 ? netlist::kNoNet
                                  : static_cast<netlist::NetId>(reader);
            f.pin = static_cast<int>(pin);
            f.stuck_value = sv != 0;
        }
        return out;
    }
    std::istringstream& stream() { return in_; }

private:
    void expect_key(const char* key) {
        std::string word;
        if (!(in_ >> word) || word != key)
            bad("expected field '" + std::string(key) + "', got '" + word +
                "'");
    }
    std::istringstream in_;
    std::size_t size_;
};

void put_curve(std::ostream& out, const char* key,
               const flow::CoverageCurve& c) {
    out << key << " " << c.size();
    for (const double v : c.values) out << " " << double_hex(v);
    out << "\n";
}

void put_ints(std::ostream& out, const char* key,
              const std::vector<int>& v) {
    out << key << " " << v.size();
    for (const int x : v) out << " " << x;
    out << "\n";
}

void put_faults(std::ostream& out, const char* key,
                const std::vector<gatesim::StuckAtFault>& f) {
    out << key << " " << f.size() << "\n";
    for (const auto& s : f) {
        const long long reader =
            s.is_stem() ? -1 : static_cast<long long>(s.reader);
        out << s.net << " " << reader << " " << s.pin << " "
            << (s.stuck_value ? 1 : 0) << "\n";
    }
}

support::StopReason stop_from_int(long long v) {
    if (v < 0 || v > static_cast<long long>(support::StopReason::LintFailed))
        bad("bad stop reason");
    return static_cast<support::StopReason>(v);
}

}  // namespace

std::string serialize_faults(const std::vector<gatesim::StuckAtFault>& f) {
    std::ostringstream out;
    out << "dlproj-faults 1\n";
    put_faults(out, "count", f);
    return out.str();
}

std::vector<gatesim::StuckAtFault> parse_faults(const std::string& text) {
    Reader r(text);
    r.magic("dlproj-faults 1");
    return r.faults("count");
}

std::string serialize_tests(const flow::ExperimentRunner::TestSet& t) {
    std::ostringstream out;
    out << "dlproj-tests 4\n";
    put_faults(out, "stuck", t.stuck);
    out << "random_count " << t.tests.random_count << "\n";
    out << "deterministic_count " << t.tests.deterministic_count << "\n";
    out << "detected " << t.tests.detected << "\n";
    out << "redundant " << t.tests.redundant << "\n";
    out << "aborted " << t.tests.aborted << "\n";
    out << "untargeted " << t.tests.untargeted << "\n";
    out << "stop " << static_cast<int>(t.tests.stop) << "\n";
    out << "ndetect " << t.tests.ndetect << "\n";
    out << "topup_random " << t.tests.topup_random_count << "\n";
    out << "topup_weighted " << t.tests.topup_weighted_count << "\n";
    out << "topup_deterministic " << t.tests.topup_deterministic_count
        << "\n";
    const std::size_t width =
        t.tests.vectors.empty() ? 0 : t.tests.vectors.front().size();
    out << "width " << width << "\n";
    out << "vectors " << t.tests.vectors.size() << "\n";
    for (const auto& v : t.tests.vectors) {
        std::string bits(v.size(), '0');
        for (std::size_t i = 0; i < v.size(); ++i)
            if (v[i]) bits[i] = '1';
        out << bits << "\n";
    }
    put_ints(out, "first_detected_at", t.tests.first_detected_at);
    put_ints(out, "detection_counts", t.tests.detection_counts);
    put_ints(out, "nth_detected_at", t.tests.nth_detected_at);
    out << "status " << t.tests.status.size();
    for (const auto s : t.tests.status) out << " " << static_cast<int>(s);
    out << "\n";
    put_curve(out, "t_curve", t.t_curve);
    put_curve(out, "t_curve_raw", t.t_curve_raw);
    return out.str();
}

flow::ExperimentRunner::TestSet parse_tests(const std::string& text) {
    Reader r(text);
    r.magic("dlproj-tests 4");
    flow::ExperimentRunner::TestSet t;
    t.stuck = r.faults("stuck");
    t.tests.random_count = static_cast<int>(r.field("random_count"));
    t.tests.deterministic_count =
        static_cast<int>(r.field("deterministic_count"));
    t.tests.detected = static_cast<std::size_t>(r.field("detected"));
    t.tests.redundant = static_cast<std::size_t>(r.field("redundant"));
    t.tests.aborted = static_cast<std::size_t>(r.field("aborted"));
    t.tests.untargeted = static_cast<std::size_t>(r.field("untargeted"));
    t.tests.stop = stop_from_int(r.field("stop"));
    t.tests.ndetect = static_cast<int>(r.field("ndetect"));
    if (t.tests.ndetect < 1) bad("bad ndetect target");
    t.tests.topup_random_count = static_cast<int>(r.field("topup_random"));
    t.tests.topup_weighted_count =
        static_cast<int>(r.field("topup_weighted"));
    t.tests.topup_deterministic_count =
        static_cast<int>(r.field("topup_deterministic"));
    const long long width = r.field("width");
    t.tests.vectors.resize(r.count("vectors"));
    std::string bits;
    for (auto& v : t.tests.vectors) {
        if (!(r.stream() >> bits) ||
            bits.size() != static_cast<std::size_t>(width))
            bad("truncated vector set");
        v.resize(bits.size());
        for (std::size_t i = 0; i < bits.size(); ++i) v[i] = bits[i] == '1';
    }
    t.tests.first_detected_at = r.ints("first_detected_at");
    t.tests.detection_counts = r.ints("detection_counts");
    t.tests.nth_detected_at = r.ints("nth_detected_at");
    const std::vector<int> status = r.ints("status");
    t.tests.status.reserve(status.size());
    for (const int s : status) {
        if (s < 0 || s > static_cast<int>(atpg::FaultStatus::Undetected))
            bad("bad fault status");
        t.tests.status.push_back(static_cast<atpg::FaultStatus>(s));
    }
    t.t_curve = r.curve("t_curve");
    t.t_curve_raw = r.curve("t_curve_raw");
    return t;
}

std::string serialize_simulation(
    const flow::ExperimentRunner::SimulationData& d) {
    std::ostringstream out;
    out << "dlproj-sim 1\n";
    out << "stop " << static_cast<int>(d.stop) << "\n";
    out << "vectors_done " << d.vectors_done << "\n";
    out << "vectors_total " << d.vectors_total << "\n";
    put_curve(out, "theta_curve", d.theta_curve);
    put_curve(out, "gamma_curve", d.gamma_curve);
    put_curve(out, "theta_iddq_curve", d.theta_iddq_curve);
    put_ints(out, "first_detected_at", d.first_detected_at);
    put_ints(out, "iddq_detected_at", d.iddq_detected_at);
    return out.str();
}

flow::ExperimentRunner::SimulationData parse_simulation(
    const std::string& text) {
    Reader r(text);
    r.magic("dlproj-sim 1");
    flow::ExperimentRunner::SimulationData d;
    d.stop = stop_from_int(r.field("stop"));
    d.vectors_done = static_cast<std::size_t>(r.field("vectors_done"));
    d.vectors_total = static_cast<std::size_t>(r.field("vectors_total"));
    d.theta_curve = r.curve("theta_curve");
    d.gamma_curve = r.curve("gamma_curve");
    d.theta_iddq_curve = r.curve("theta_iddq_curve");
    d.first_detected_at = r.ints("first_detected_at");
    d.iddq_detected_at = r.ints("iddq_detected_at");
    return d;
}

std::string serialize_cell(const CellResult& c) {
    std::ostringstream out;
    out << "dlproj-cell 5\n";
    out << "circuit " << c.circuit << "\n";
    out << "rules " << c.rules << "\n";
    out << "atpg " << c.atpg << "\n";
    out << "seed " << c.seed << "\n";
    out << "mapped_gates " << c.mapped_gates << "\n";
    out << "stuck_faults " << c.stuck_faults << "\n";
    out << "realistic_faults " << c.realistic_faults << "\n";
    out << "transistors " << c.transistors << "\n";
    out << "vector_count " << c.vector_count << "\n";
    out << "random_vectors " << c.random_vectors << "\n";
    out << "yield " << double_hex(c.yield) << "\n";
    out << "fit_r " << double_hex(c.fit_r) << "\n";
    out << "fit_theta_max " << double_hex(c.fit_theta_max) << "\n";
    out << "fit_rms " << double_hex(c.fit_rms) << "\n";
    out << "ndetect " << c.ndetect << "\n";
    out << "ndetect_min " << c.ndetect_min << "\n";
    out << "ndetect_mean " << double_hex(c.ndetect_mean) << "\n";
    out << "worst_case_coverage " << double_hex(c.worst_case_coverage)
        << "\n";
    out << "avg_case_coverage " << double_hex(c.avg_case_coverage) << "\n";
    out << "analysis " << (c.analysis ? 1 : 0) << "\n";
    out << "untestable_faults " << c.untestable_faults << "\n";
    out << "fit_raw_r " << double_hex(c.fit_raw_r) << "\n";
    out << "fit_raw_theta_max " << double_hex(c.fit_raw_theta_max) << "\n";
    out << "defect_stats " << c.defect_stats << "\n";
    out << "stat_yield " << double_hex(c.stat_yield) << "\n";
    out << "fit_c_r " << double_hex(c.fit_c_r) << "\n";
    out << "fit_c_theta_max " << double_hex(c.fit_c_theta_max) << "\n";
    out << "fit_c_alpha " << double_hex(c.fit_c_alpha) << "\n";
    out << "fit_c_rms " << double_hex(c.fit_c_rms) << "\n";
    out << "interruption " << (c.interruption.empty() ? "-" : c.interruption)
        << "\n";
    put_curve(out, "t_curve", c.t_curve);
    put_curve(out, "t_curve_raw", c.t_curve_raw);
    put_curve(out, "theta_curve", c.theta_curve);
    put_curve(out, "gamma_curve", c.gamma_curve);
    put_curve(out, "theta_iddq_curve", c.theta_iddq_curve);
    return out.str();
}

CellResult parse_cell(const std::string& text) {
    Reader r(text);
    r.magic("dlproj-cell 5");
    CellResult c;
    c.circuit = r.sfield("circuit");
    c.rules = r.sfield("rules");
    c.atpg = r.sfield("atpg");
    c.seed = static_cast<std::uint64_t>(r.field("seed"));
    c.mapped_gates = static_cast<std::size_t>(r.field("mapped_gates"));
    c.stuck_faults = static_cast<std::size_t>(r.field("stuck_faults"));
    c.realistic_faults =
        static_cast<std::size_t>(r.field("realistic_faults"));
    c.transistors = static_cast<std::size_t>(r.field("transistors"));
    c.vector_count = static_cast<int>(r.field("vector_count"));
    c.random_vectors = static_cast<int>(r.field("random_vectors"));
    c.yield = r.dfield("yield");
    c.fit_r = r.dfield("fit_r");
    c.fit_theta_max = r.dfield("fit_theta_max");
    c.fit_rms = r.dfield("fit_rms");
    c.ndetect = static_cast<int>(r.field("ndetect"));
    if (c.ndetect < 1) bad("bad ndetect target");
    c.ndetect_min = static_cast<int>(r.field("ndetect_min"));
    c.ndetect_mean = r.dfield("ndetect_mean");
    c.worst_case_coverage = r.dfield("worst_case_coverage");
    c.avg_case_coverage = r.dfield("avg_case_coverage");
    c.analysis = r.field("analysis") != 0;
    c.untestable_faults =
        static_cast<std::size_t>(r.field("untestable_faults"));
    c.fit_raw_r = r.dfield("fit_raw_r");
    c.fit_raw_theta_max = r.dfield("fit_raw_theta_max");
    c.defect_stats = r.sfield("defect_stats");
    if (c.defect_stats.empty()) bad("empty defect_stats descriptor");
    c.stat_yield = r.dfield("stat_yield");
    c.fit_c_r = r.dfield("fit_c_r");
    c.fit_c_theta_max = r.dfield("fit_c_theta_max");
    c.fit_c_alpha = r.dfield("fit_c_alpha");
    c.fit_c_rms = r.dfield("fit_c_rms");
    c.interruption = r.sfield("interruption");
    if (c.interruption == "-") c.interruption.clear();
    c.t_curve = r.curve("t_curve");
    c.t_curve_raw = r.curve("t_curve_raw");
    c.theta_curve = r.curve("theta_curve");
    c.gamma_curve = r.curve("gamma_curve");
    c.theta_iddq_curve = r.curve("theta_iddq_curve");
    return c;
}

std::string serialize_analysis(
    const flow::ExperimentRunner::AnalysisData& a) {
    std::ostringstream out;
    out << "dlproj-analysis 1\n";
    put_faults(out, "stuck", a.stuck);
    out << "untestable " << a.untestable.size();
    for (const auto m : a.untestable) out << " " << static_cast<int>(m);
    out << "\n";
    out << "stop " << static_cast<int>(a.stop) << "\n";
    out << "pivots_done " << a.stats.pivots_done << "\n";
    out << "pivots_total " << a.stats.pivots_total << "\n";
    out << "implications " << a.stats.implications << "\n";
    out << "learned " << a.stats.learned << "\n";
    out << "constant_lines " << a.stats.constant_lines << "\n";
    out << "proofs " << a.stats.proofs << "\n";
    return out.str();
}

flow::ExperimentRunner::AnalysisData parse_analysis(
    const std::string& text) {
    Reader r(text);
    r.magic("dlproj-analysis 1");
    flow::ExperimentRunner::AnalysisData a;
    a.stuck = r.faults("stuck");
    const std::vector<int> marks = r.ints("untestable");
    if (marks.size() != a.stuck.size())
        bad("untestable mask size mismatch");
    a.untestable.reserve(marks.size());
    for (const int m : marks) {
        if (m != 0 && m != 1) bad("bad untestable mark");
        a.untestable.push_back(static_cast<std::uint8_t>(m));
    }
    a.stop = stop_from_int(r.field("stop"));
    a.stats.pivots_done = static_cast<std::size_t>(r.field("pivots_done"));
    a.stats.pivots_total = static_cast<std::size_t>(r.field("pivots_total"));
    a.stats.implications =
        static_cast<std::uint64_t>(r.field("implications"));
    a.stats.learned = static_cast<std::uint64_t>(r.field("learned"));
    a.stats.constant_lines =
        static_cast<std::size_t>(r.field("constant_lines"));
    a.stats.proofs = static_cast<std::size_t>(r.field("proofs"));
    return a;
}

}  // namespace dlp::campaign
