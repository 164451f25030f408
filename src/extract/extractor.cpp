#include "extract/extractor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>

#include "extract/critical_area.h"
#include "obs/telemetry.h"

namespace dlp::extract {

namespace {

using cell::Layer;
using cell::NetRef;
using layout::FlatShape;

bool conducting_layer(Layer layer) {
    switch (layer) {
        case Layer::NDiff:
        case Layer::PDiff:
        case Layer::Poly:
        case Layer::Metal1:
        case Layer::Metal2:
            return true;
        default:
            return false;
    }
}

bool cut_layer(Layer layer) {
    return layer == Layer::Contact || layer == Layer::Via;
}

std::string ref_name(const NetRef& r) { return cell::net_ref_name(r); }

/// Where two facing shapes face each other: the overlap [lo, hi) of their
/// extents along the run, and the gap across it.  Axis 0: one lies above
/// the other, so the run is along x; axis 1: side by side, along y.
struct Run {
    std::int64_t lo;
    std::int64_t hi;
    double gap;
};
Run facing_run(const cell::Rect& a, const cell::Rect& b, std::uint32_t axis) {
    if (axis == 0)
        return {std::max(a.x1, b.x1), std::min(a.x2, b.x2),
                static_cast<double>(std::max(a.y1, b.y1) -
                                    std::min(a.y2, b.y2))};
    return {std::max(a.y1, b.y1), std::min(a.y2, b.y2),
            static_cast<double>(std::max(a.x1, b.x1) - std::min(a.x2, b.x2))};
}

/// Adds `w` to the weight of `key` in `sums`, a map to (weight, payload)
/// pairs; a new key starts at (0, payload()).
template <class Map, class Payload>
void add_weight(Map& sums, const typename Map::key_type& key, double w,
                const Payload& payload) {
    const auto [it, fresh] = sums.try_emplace(key);
    if (fresh) it->second.second = payload();
    it->second.first += w;
}

/// Weight classes: "bridge.", "bridge3." and "open." per layer, then
/// "gross" and "open.cut".
enum Family : std::size_t { kBridgeClass, kBridge3Class, kOpenClass };
constexpr std::size_t kGrossClass = 3 * cell::kLayerCount;
constexpr std::size_t kCutClass = kGrossClass + 1;
constexpr std::size_t layer_class(Family family, Layer layer) {
    return family * cell::kLayerCount + static_cast<std::size_t>(layer);
}
std::string class_name(std::size_t cls) {
    if (cls == kGrossClass) return "gross";
    if (cls == kCutClass) return "open.cut";
    static constexpr const char* kFamilies[] = {"bridge.", "bridge3.",
                                                "open."};
    return std::string(kFamilies[cls / cell::kLayerCount]) +
           cell::layer_name(static_cast<Layer>(cls % cell::kLayerCount));
}

}  // namespace

const char* fault_kind_name(ExtractedFault::Kind kind) {
    switch (kind) {
        case ExtractedFault::Kind::Bridge: return "bridge";
        case ExtractedFault::Kind::TransistorOpen: return "transistor-open";
        case ExtractedFault::Kind::GateFloat: return "gate-float";
        case ExtractedFault::Kind::NetOpen: return "net-open";
        case ExtractedFault::Kind::PoFloat: return "po-float";
        case ExtractedFault::Kind::Gross: return "gross";
    }
    return "?";
}

double ExtractionResult::yield() const { return std::exp(-total_weight); }

std::vector<double> ExtractionResult::weights() const {
    std::vector<double> out;
    out.reserve(faults.size());
    for (const auto& f : faults) out.push_back(f.weight);
    return out;
}

ExtractionResult extract_faults(const layout::ChipLayout& chip,
                                const DefectStatistics& stats,
                                const ExtractOptions& options) {
    ExtractionResult result;
    const auto flat = layout::flatten(chip);

    // A class enters weight_by_class with its first weight.
    std::array<double*, kCutClass + 1> class_total{};
    const auto account = [&](std::size_t cls, double w) {
        if (!class_total[cls])
            class_total[cls] = &result.weight_by_class[class_name(cls)];
        *class_total[cls] += w;
        result.total_weight += w;
    };

    // ---------------- bridges: same-layer parallel runs -----------------
    // Every accumulation below happens in a fixed order, the one of an
    // all-pairs loop over each layer's x1-sorted shapes; see "Extraction
    // order" in docs/ARCHITECTURE.md.
    std::map<std::pair<NetRef, NetRef>, std::pair<double, Layer>> bridges;
    std::map<std::tuple<NetRef, NetRef, NetRef>, std::pair<double, Layer>>
        triples;
    PairSearchStats search;
    {
        // A facing neighbour of a layer shape, on one of its four sides.
        struct Neighbour {
            std::uint32_t side_key;  ///< 4 * owner + side (0: above,
                                     ///< 1: below, 2: right, 3: left)
            std::uint32_t other;
        };
        // The layer's shapes in flat order (their local index), and their
        // x1 with the local index of each x1-sorted position.
        std::vector<const FlatShape*> layer_shapes;
        std::vector<std::pair<std::int64_t, std::uint32_t>> by_x1;
        std::vector<cell::Rect> rects;
        std::vector<Neighbour> neighbours;
        std::vector<std::uint32_t> side_start;
        std::vector<std::uint32_t> fill;
        std::vector<std::uint32_t> grouped;
        for (int li = 0; li < cell::kLayerCount; ++li) {
            const Layer layer = static_cast<Layer>(li);
            if (!conducting_layer(layer)) continue;
            const double density = stats.shorts(layer);
            if (density <= 0.0) continue;
            layer_shapes.clear();
            for (const FlatShape& s : flat)
                if (s.layer == layer) layer_shapes.push_back(&s);
            // std::sort sees only the x1 comparisons, so it leaves ties in
            // the order it would leave the shapes themselves.
            by_x1.clear();
            for (std::uint32_t k = 0; k < layer_shapes.size(); ++k)
                by_x1.emplace_back(layer_shapes[k]->rect.x1, k);
            std::sort(by_x1.begin(), by_x1.end(),
                      [](const auto& a, const auto& b) {
                          return a.first < b.first;
                      });
            rects.clear();
            for (const auto& [x1, k] : by_x1)
                rects.push_back(layer_shapes[k]->rect);
            neighbours.clear();
            facing_pairs(
                rects, options.max_bridge_spacing,
                [&](std::size_t i, std::size_t j, const Facing& f) {
                    const std::uint32_t ka = by_x1[i].second;
                    const std::uint32_t kb = by_x1[j].second;
                    const FlatShape& a = *layer_shapes[ka];
                    const FlatShape& b = *layer_shapes[kb];
                    if (a.net == b.net) return;
                    const double w =
                        density * short_weight(f.length, f.spacing, stats.x0);
                    if (w <= 0.0) return;
                    const auto key = std::minmax(a.net, b.net);
                    add_weight(bridges, {key.first, key.second}, w,
                               [layer] { return layer; });
                    if (!options.multi_node_bridges) return;
                    // Record the facing relation for triple extraction;
                    // b sees a on the opposite side.
                    const std::uint32_t side_a =
                        std::min(a.rect.x2, b.rect.x2) >
                                std::max(a.rect.x1, b.rect.x1)
                            ? (b.rect.y1 >= a.rect.y2 ? 0 : 1)
                            : (b.rect.x1 >= a.rect.x2 ? 2 : 3);
                    neighbours.push_back({4 * ka + side_a, kb});
                    neighbours.push_back({4 * kb + (side_a ^ 1), ka});
                },
                search);
            if (!options.multi_node_bridges) continue;
            // Group the neighbours by owner and side, keeping push order
            // within a group (a counting sort).  Owners then come in flat
            // order.
            side_start.assign(4 * layer_shapes.size() + 1, 0);
            for (const Neighbour& nb : neighbours)
                ++side_start[nb.side_key + 1];
            for (size_t k = 1; k < side_start.size(); ++k)
                side_start[k] += side_start[k - 1];
            fill.assign(side_start.begin(), side_start.end() - 1);
            grouped.resize(neighbours.size());
            for (std::uint32_t r = 0; r < neighbours.size(); ++r)
                grouped[fill[neighbours[r].side_key]++] = r;
            // Triples: a defect spanning a wire and both facing neighbours
            // shorts three nets at once (paper: bridging faults usually
            // affect multiple nodes).  Weight uses the full span, so these
            // are rarer (bigger defects) but far easier to detect.
            for (std::uint32_t k = 0; k < layer_shapes.size(); ++k) {
                const FlatShape* mid = layer_shapes[k];
                for (std::uint32_t axis = 0; axis < 2; ++axis) {
                    const std::uint32_t first = 4 * k + 2 * axis;
                    const std::uint32_t second = first + 1;
                    const std::int64_t mid_width =
                        axis == 0 ? mid->rect.height() : mid->rect.width();
                    for (std::uint32_t p = side_start[first];
                         p < side_start[first + 1]; ++p) {
                        const FlatShape& na =
                            *layer_shapes[neighbours[grouped[p]].other];
                        const Run ra = facing_run(mid->rect, na.rect, axis);
                        for (std::uint32_t q = side_start[second];
                             q < side_start[second + 1]; ++q) {
                            const FlatShape& nc =
                                *layer_shapes[neighbours[grouped[q]].other];
                            const NetRef a_net = na.net;
                            const NetRef c_net = nc.net;
                            if (a_net == c_net) continue;
                            const Run rc = facing_run(mid->rect, nc.rect, axis);
                            const std::int64_t lo = std::max(ra.lo, rc.lo);
                            const std::int64_t hi = std::min(ra.hi, rc.hi);
                            if (hi <= lo) continue;
                            const double span = ra.gap + rc.gap +
                                                static_cast<double>(mid_width);
                            const double w =
                                density *
                                short_weight(static_cast<double>(hi - lo),
                                             span, stats.x0);
                            if (w <= 0.0) continue;
                            std::array<NetRef, 3> nets{a_net, mid->net, c_net};
                            std::sort(nets.begin(), nets.end());
                            add_weight(triples, {nets[0], nets[1], nets[2]}, w,
                                       [layer] { return layer; });
                        }
                    }
                }
            }
        }
    }

    DLP_OBS_COUNTER(c_examined, "extract.pairs_examined");
    DLP_OBS_COUNTER(c_facing, "extract.facing_pairs");
    DLP_OBS_ADD(c_examined, search.examined);
    DLP_OBS_ADD(c_facing, search.facing);

    // Gate-oxide pinholes: gate-to-channel shorts, one per transistor.
    for (const auto& gr : layout::flatten_gate_regions(chip)) {
        if (stats.pinhole_density <= 0.0) break;
        const cell::Cell& c = *chip.cells[static_cast<size_t>(gr.instance)].cell;
        const cell::Transistor& t =
            c.transistors[static_cast<size_t>(gr.transistor)];
        const NetRef gate = layout::resolve_local_net(chip, gr.instance, t.gate);
        const NetRef drain =
            layout::resolve_local_net(chip, gr.instance, t.drain);
        const double w =
            stats.pinhole_density * static_cast<double>(gr.rect.area());
        if (w <= 0.0 || gate == drain) continue;
        const auto key = std::minmax(gate, drain);
        add_weight(bridges, {key.first, key.second}, w,
                   [] { return Layer::Poly; });
    }

    // Every bridge and triple gives one fault and every flat shape at most
    // one open.  Reserving that bound keeps the list from growing by
    // doubling, whose freed buffers the heap keeps resident across runs;
    // the unused tail is never touched.
    result.faults.reserve(bridges.size() + triples.size() + flat.size());
    for (const auto& [nets, wl] : bridges) {
        const auto& [a, b] = nets;
        const auto& [w, layer] = wl;
        ExtractedFault fault;
        fault.weight = w;
        if (a.is_power() && b.is_power()) {
            fault.kind = ExtractedFault::Kind::Gross;
            fault.description = "gross supply short";
            account(kGrossClass, w);
        } else {
            fault.kind = ExtractedFault::Kind::Bridge;
            fault.a = a;
            fault.b = b;
            fault.description =
                "bridge " + ref_name(a) + "~" + ref_name(b);
            account(layer_class(kBridgeClass, layer), w);
        }
        if (fault.weight >= options.min_weight)
            result.faults.push_back(std::move(fault));
    }
    for (const auto& [nets, wl] : triples) {
        const auto& [a, b, c] = nets;
        const auto& [w, layer] = wl;
        ExtractedFault fault;
        fault.weight = w;
        const int power_count = (a.is_power() ? 1 : 0) +
                                (b.is_power() ? 1 : 0) +
                                (c.is_power() ? 1 : 0);
        if (power_count >= 2) {
            // The three nets include both rails: a supply short.
            fault.kind = ExtractedFault::Kind::Gross;
            fault.description = "gross supply short (triple)";
            account(kGrossClass, w);
        } else {
            fault.kind = ExtractedFault::Kind::Bridge;
            fault.a = a;
            fault.b = b;
            fault.c = c;
            fault.description = "bridge3 " + ref_name(a) + "~" +
                                ref_name(b) + "~" + ref_name(c);
            account(layer_class(kBridge3Class, layer), w);
        }
        if (fault.weight >= options.min_weight)
            result.faults.push_back(std::move(fault));
    }

    // ---------------- opens ---------------------------------------------
    struct OpenKey {
        ExtractedFault::Kind kind;
        std::int32_t instance;
        std::vector<std::pair<std::int32_t, int>> transistors;
        netlist::NetId net;
        int sink;
        int po;
        bool operator<(const OpenKey& o) const {
            return std::tie(kind, instance, transistors, net, sink, po) <
                   std::tie(o.kind, o.instance, o.transistors, o.net, o.sink,
                            o.po);
        }
    };
    std::map<OpenKey, std::pair<double, std::string>> opens;
    // An open's description is built when its key first appears.
    const auto add_open = [&](const OpenKey& key, double w, std::size_t cls,
                              const auto& describe) {
        if (w <= 0.0) return;
        add_weight(opens, key, w, describe);
        account(cls, w);
    };

    for (const FlatShape& s : flat) {
        double w = 0.0;
        std::size_t cls = kCutClass;
        if (conducting_layer(s.layer)) {
            const double density = stats.opens(s.layer);
            if (density <= 0.0) continue;
            const double len = static_cast<double>(
                std::max(s.rect.width(), s.rect.height()));
            const double wid = static_cast<double>(
                std::min(s.rect.width(), s.rect.height()));
            w = density * open_weight(len, wid, stats.x0);
            cls = layer_class(kOpenClass, s.layer);
        } else if (cut_layer(s.layer)) {
            w = stats.contact_open_density * static_cast<double>(s.rect.area());
        } else {
            continue;
        }

        if (s.instance >= 0) {
            // Cell shape: semantics from its ShapeInfo tag.
            using OK = cell::ShapeInfo::OpenKind;
            if (s.info.open == OK::None) continue;
            OpenKey key{};
            key.net = netlist::kNoNet;
            key.sink = -1;
            key.po = -1;
            key.instance = s.instance;
            if (s.info.open == OK::TransistorDS) {
                const int t = s.info.t1 >= 0 ? s.info.t1 : s.info.t2;
                if (t < 0) continue;
                key.kind = ExtractedFault::Kind::TransistorOpen;
                key.transistors = {{s.instance, t}};
                add_open(key, w, cls, [&] {
                    return "open in instance " + std::to_string(s.instance) +
                           " transistor path";
                });
            } else {
                key.kind = ExtractedFault::Kind::GateFloat;
                if (s.info.t1 >= 0)
                    key.transistors.push_back({s.instance, s.info.t1});
                if (s.info.t2 >= 0)
                    key.transistors.push_back({s.instance, s.info.t2});
                if (key.transistors.empty()) continue;
                add_open(key, w, cls, [&] {
                    return "floating gate in instance " +
                           std::to_string(s.instance);
                });
            }
        } else if (s.route_sink != -3) {
            // Routing shape.
            const netlist::NetId net =
                static_cast<netlist::NetId>(s.net.index);
            OpenKey key{};
            key.instance = -1;
            key.po = -1;
            if (s.route_sink >= 0 &&
                chip.sinks[net][static_cast<size_t>(s.route_sink)]
                    .is_po_pad()) {
                key.kind = ExtractedFault::Kind::PoFloat;
                key.net = net;
                key.sink = -1;
                key.po = chip.sinks[net][static_cast<size_t>(s.route_sink)].pin;
                add_open(key, w, cls, [&] {
                    return "PO pad open on " + chip.circuit.gate(net).name;
                });
            } else {
                key.kind = ExtractedFault::Kind::NetOpen;
                key.net = net;
                key.sink = s.route_sink >= 0 ? s.route_sink : -1;
                add_open(key, w, cls, [&] {
                    return "routing open on " + chip.circuit.gate(net).name;
                });
            }
        }
    }

    for (auto& [key, wd] : opens) {
        ExtractedFault fault;
        fault.kind = key.kind;
        fault.transistors = key.transistors;
        fault.net = key.net;
        fault.sink = key.sink;
        fault.po = key.po;
        fault.weight = wd.first;
        fault.description = std::move(wd.second);
        if (fault.weight >= options.min_weight)
            result.faults.push_back(std::move(fault));
    }

    return result;
}

}  // namespace dlp::extract
