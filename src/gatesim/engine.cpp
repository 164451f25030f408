#include "gatesim/engine.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "gatesim/levelized.h"

namespace dlp::sim {

// ---- Session derived accessors -------------------------------------------
// One definition shared by both engines, computed from the detection table,
// so curves cannot drift between implementations.

std::size_t Session::detected_count() const {
    std::size_t n = 0;
    for (int at : first_detected_at())
        if (at >= 0) ++n;
    return n;
}

double Session::coverage() const {
    const auto f = faults();
    return f.empty() ? 0.0
                     : static_cast<double>(detected_count()) /
                           static_cast<double>(f.size());
}

std::vector<double> Session::coverage_curve() const {
    const int applied = vectors_applied();
    const auto f = faults();
    std::vector<int> hits(static_cast<std::size_t>(applied) + 1, 0);
    for (int at : first_detected_at())
        if (at >= 1 && at <= applied) ++hits[static_cast<std::size_t>(at)];
    std::vector<double> curve(static_cast<std::size_t>(applied));
    long cum = 0;
    for (int k = 1; k <= applied; ++k) {
        cum += hits[static_cast<std::size_t>(k)];
        curve[static_cast<std::size_t>(k - 1)] =
            f.empty() ? 0.0
                      : static_cast<double>(cum) /
                            static_cast<double>(f.size());
    }
    return curve;
}

std::vector<std::size_t> Session::undetected() const {
    const auto table = first_detected_at();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < table.size(); ++i)
        if (table[i] < 0) out.push_back(i);
    return out;
}

std::size_t Session::fully_detected_count() const {
    std::size_t n = 0;
    for (int at : nth_detected_at())
        if (at >= 0) ++n;
    return n;
}

// ---- Builtin engines ------------------------------------------------------

namespace {

using gatesim::Circuit;
using gatesim::StuckAtFault;
using gatesim::Vector;

/// The reference oracle: scalar, one vector at a time, whole-circuit
/// re-simulation per fault.  Shares nothing with the levelized engine
/// except the netlist IR, which is what makes it a meaningful differential
/// baseline.  Same block/budget boundaries as the levelized engine, so
/// interrupted runs are comparable too.  O(faults x vectors x gates) —
/// test-sized circuits only.
class NaiveSession final : public Session {
public:
    NaiveSession(const Circuit& circuit, std::vector<StuckAtFault> faults,
                 SessionOptions options)
        : circuit_(circuit),
          faults_(std::move(faults)),
          ndetect_(std::max(1, options.ndetect)),
          untestable_(std::move(options.untestable)) {
        if (!untestable_.empty() && untestable_.size() != faults_.size())
            throw std::invalid_argument(
                "NaiveSession: untestable mask size mismatch");
        detected_at_.assign(faults_.size(), -1);
        counts_.assign(faults_.size(), 0);
        nth_at_.assign(faults_.size(), -1);
    }

    std::span<const StuckAtFault> faults() const override { return faults_; }
    std::span<const int> first_detected_at() const override {
        return detected_at_;
    }
    int vectors_applied() const override { return vectors_applied_; }

    int ndetect_target() const override { return ndetect_; }
    std::vector<int> detection_counts() const override { return counts_; }
    std::vector<int> nth_detected_at() const override { return nth_at_; }

    support::ApplyResult apply(std::span<const Vector> vectors,
                               const support::RunBudget& budget) override {
        const int before_applied = vectors_applied_;
        support::ApplyResult result;
        const std::size_t allowed =
            budget.allowed_vectors(vectors.size(), vectors_applied_);
        if (allowed < vectors.size()) {
            vectors = vectors.first(allowed);
            result.stop = support::StopReason::VectorBudget;
        }
        std::size_t completed = 0;
        for (std::size_t base = 0; base < vectors.size(); base += 64) {
            const support::StopReason stop = budget.check();
            if (stop != support::StopReason::None) {
                result.stop = stop;
                break;
            }
            const std::size_t take =
                std::min<std::size_t>(64, vectors.size() - base);
            std::vector<std::vector<bool>> good(take);
            for (std::size_t k = 0; k < take; ++k)
                good[k] = good_outputs(vectors[base + k]);
            for (std::size_t fi = 0; fi < faults_.size(); ++fi) {
                if (counts_[fi] >= ndetect_) continue;  // fault dropping
                if (!untestable_.empty() && untestable_[fi])
                    continue;  // statically proven undetectable
                for (std::size_t k = 0; k < take; ++k)
                    if (faulty_outputs(vectors[base + k], faults_[fi]) !=
                        good[k]) {
                        const int pos =
                            before_applied + static_cast<int>(base + k) + 1;
                        if (detected_at_[fi] < 0) detected_at_[fi] = pos;
                        if (++counts_[fi] == ndetect_) {
                            nth_at_[fi] = pos;
                            break;
                        }
                    }
            }
            completed = base + take;
        }
        vectors_applied_ += static_cast<int>(completed);
        for (int at : detected_at_)
            if (at > before_applied) ++result.newly_detected;
        result.vectors_applied = static_cast<int>(completed);
        return result;
    }
    using Session::apply;

private:
    std::vector<bool> good_outputs(const Vector& v) const {
        const std::vector<bool> nets = gatesim::simulate(circuit_, v);
        std::vector<bool> outs;
        for (const netlist::NetId po : circuit_.outputs())
            outs.push_back(nets[po]);
        return outs;
    }

    std::vector<bool> faulty_outputs(const Vector& v,
                                     const StuckAtFault& f) const {
        std::vector<std::uint64_t> value(circuit_.gate_count(), 0);
        std::size_t next_input = 0;
        for (netlist::NetId id = 0; id < circuit_.gate_count(); ++id) {
            const netlist::Gate& g = circuit_.gate(id);
            if (g.type == netlist::GateType::Input) {
                value[id] = v[next_input++] ? 1 : 0;
            } else {
                std::vector<std::uint64_t> fanin;
                for (std::size_t pin = 0; pin < g.fanin.size(); ++pin) {
                    std::uint64_t bit = value[g.fanin[pin]] & 1;
                    if (!f.is_stem() && f.reader == id &&
                        f.pin == static_cast<int>(pin))
                        bit = f.stuck_value ? 1 : 0;
                    fanin.push_back(bit);
                }
                value[id] = netlist::eval_gate(g.type, fanin) & 1;
            }
            if (f.is_stem() && f.net == id) value[id] = f.stuck_value ? 1 : 0;
        }
        std::vector<bool> outs;
        for (const netlist::NetId po : circuit_.outputs())
            outs.push_back(value[po] & 1);
        return outs;
    }

    const Circuit& circuit_;
    std::vector<StuckAtFault> faults_;
    const int ndetect_;
    std::vector<std::uint8_t> untestable_;  ///< skip mask (empty = none)
    std::vector<int> detected_at_;
    std::vector<int> counts_;  ///< detections so far, saturated at ndetect_
    std::vector<int> nth_at_;  ///< vector index reaching the target; -1 below
    int vectors_applied_ = 0;
};

class NaiveEngine final : public Engine {
public:
    std::string_view name() const override { return "naive"; }
    std::string_view description() const override {
        return "scalar per-vector reference oracle (slow; differential "
               "baseline)";
    }
    std::unique_ptr<Session> open(
        const Circuit& circuit, std::vector<StuckAtFault> faults,
        parallel::ParallelOptions, SessionOptions options) const override {
        return std::make_unique<NaiveSession>(circuit, std::move(faults),
                                              options);
    }
};

class LevelizedEngine final : public Engine {
public:
    std::string_view name() const override { return "levelized"; }
    std::string_view description() const override {
        return "levelized SoA engine: event-driven cone propagation over a "
               "flat compiled circuit";
    }
    std::unique_ptr<Session> open(
        const Circuit& circuit, std::vector<StuckAtFault> faults,
        parallel::ParallelOptions parallel,
        SessionOptions options) const override {
        return std::make_unique<gatesim::LevelizedFaultSimulator>(
            circuit, std::move(faults), parallel, options.ndetect,
            std::move(options.untestable));
    }
};

/// The fixed engine table, oracle first (function-local statics, so it is
/// usable from other translation units' static initializers).
std::span<const Engine* const> engines() {
    static const NaiveEngine naive;
    static const LevelizedEngine levelized;
    static const Engine* const table[] = {&naive, &levelized};
    return table;
}

}  // namespace

std::vector<std::string_view> engine_names() {
    std::vector<std::string_view> names;
    for (const Engine* e : engines()) names.push_back(e->name());
    return names;
}

const Engine& engine(std::string_view name) {
    for (const Engine* e : engines())
        if (e->name() == name) return *e;
    std::ostringstream msg;
    msg << "unknown fault-sim engine '" << name << "' (engines:";
    for (const auto n : engine_names()) msg << " " << n;
    msg << ")";
    throw std::invalid_argument(msg.str());
}

}  // namespace dlp::sim
