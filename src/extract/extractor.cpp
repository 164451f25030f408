#include "extract/extractor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>

#include "extract/critical_area.h"

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

    const auto account = [&result](const std::string& cls, double w) {
        result.weight_by_class[cls] += w;
        result.total_weight += w;
    };

    // ---------------- bridges: same-layer parallel runs -----------------
    std::map<std::pair<NetRef, NetRef>, std::pair<double, Layer>> bridges;
    std::map<std::tuple<NetRef, NetRef, NetRef>, std::pair<double, Layer>>
        triples;
    {
        // A facing neighbour of a shape, on one of its four sides.
        struct Neighbour {
            const FlatShape* other;
            double gap;
            std::int64_t lo, hi;  ///< overlap interval along the run axis
        };
        std::vector<const FlatShape*> layer_shapes;
        std::map<const FlatShape*, std::array<std::vector<Neighbour>, 4>>
            sides;  // 0: above, 1: below, 2: right, 3: left
        for (int li = 0; li < cell::kLayerCount; ++li) {
            const Layer layer = static_cast<Layer>(li);
            if (!conducting_layer(layer)) continue;
            const double density = stats.shorts(layer);
            if (density <= 0.0) continue;
            layer_shapes.clear();
            sides.clear();
            for (const FlatShape& s : flat)
                if (s.layer == layer) layer_shapes.push_back(&s);
            std::sort(layer_shapes.begin(), layer_shapes.end(),
                      [](const FlatShape* a, const FlatShape* b) {
                          return a->rect.x1 < b->rect.x1;
                      });
            for (size_t i = 0; i < layer_shapes.size(); ++i) {
                const FlatShape& a = *layer_shapes[i];
                for (size_t j = i + 1; j < layer_shapes.size(); ++j) {
                    const FlatShape& b = *layer_shapes[j];
                    if (b.rect.x1 > a.rect.x2 + options.max_bridge_spacing)
                        break;
                    if (a.net == b.net) continue;
                    const auto f = facing(a.rect, b.rect,
                                          options.max_bridge_spacing);
                    if (!f) continue;
                    const double w =
                        density * short_weight(f->length, f->spacing, stats.x0);
                    if (w <= 0.0) continue;
                    auto key = std::minmax(a.net, b.net);
                    auto [it, fresh] = bridges.try_emplace(
                        std::pair{key.first, key.second},
                        std::pair{0.0, layer});
                    it->second.first += w;
                    (void)fresh;
                    if (options.multi_node_bridges) {
                        // Record the facing relation for triple extraction.
                        const std::int64_t x_ov =
                            std::min(a.rect.x2, b.rect.x2) -
                            std::max(a.rect.x1, b.rect.x1);
                        if (x_ov > 0) {
                            const std::int64_t lo =
                                std::max(a.rect.x1, b.rect.x1);
                            const std::int64_t hi =
                                std::min(a.rect.x2, b.rect.x2);
                            const bool b_above = b.rect.y1 >= a.rect.y2;
                            sides[&a][b_above ? 0 : 1].push_back(
                                {&b, f->spacing, lo, hi});
                            sides[&b][b_above ? 1 : 0].push_back(
                                {&a, f->spacing, lo, hi});
                        } else {
                            const std::int64_t lo =
                                std::max(a.rect.y1, b.rect.y1);
                            const std::int64_t hi =
                                std::min(a.rect.y2, b.rect.y2);
                            const bool b_right = b.rect.x1 >= a.rect.x2;
                            sides[&a][b_right ? 2 : 3].push_back(
                                {&b, f->spacing, lo, hi});
                            sides[&b][b_right ? 3 : 2].push_back(
                                {&a, f->spacing, lo, hi});
                        }
                    }
                }
            }
            if (!options.multi_node_bridges) continue;
            // Triples: a defect spanning a wire and both facing neighbours
            // shorts three nets at once (paper: bridging faults usually
            // affect multiple nodes).  Weight uses the full span, so these
            // are rarer (bigger defects) but far easier to detect.
            for (const auto& [mid, quad] : sides) {
                for (int axis = 0; axis < 2; ++axis) {
                    const auto& first = quad[axis == 0 ? 0 : 2];
                    const auto& second = quad[axis == 0 ? 1 : 3];
                    const std::int64_t mid_width =
                        axis == 0 ? mid->rect.height() : mid->rect.width();
                    for (const Neighbour& na : first)
                        for (const Neighbour& nc : second) {
                            if (na.other->net == nc.other->net) continue;
                            const std::int64_t lo = std::max(na.lo, nc.lo);
                            const std::int64_t hi = std::min(na.hi, nc.hi);
                            if (hi <= lo) continue;
                            const double span = na.gap + nc.gap +
                                                static_cast<double>(mid_width);
                            const double w =
                                density *
                                short_weight(static_cast<double>(hi - lo),
                                             span, stats.x0);
                            if (w <= 0.0) continue;
                            std::array<NetRef, 3> nets{na.other->net,
                                                       mid->net,
                                                       nc.other->net};
                            std::sort(nets.begin(), nets.end());
                            auto [it, fresh] = triples.try_emplace(
                                std::tuple{nets[0], nets[1], nets[2]},
                                std::pair{0.0, layer});
                            it->second.first += w;
                            (void)fresh;
                        }
                }
            }
        }
    }

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
        auto key = std::minmax(gate, drain);
        auto [it, fresh] = bridges.try_emplace(
            std::pair{key.first, key.second},
            std::pair{0.0, Layer::Poly});
        it->second.first += w;
        (void)fresh;
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
            account("gross", w);
        } else {
            fault.kind = ExtractedFault::Kind::Bridge;
            fault.a = a;
            fault.b = b;
            fault.description =
                "bridge " + ref_name(a) + "~" + ref_name(b);
            account(std::string("bridge.") + cell::layer_name(layer), w);
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
            account("gross", w);
        } else {
            fault.kind = ExtractedFault::Kind::Bridge;
            fault.a = a;
            fault.b = b;
            fault.c = c;
            fault.description = "bridge3 " + ref_name(a) + "~" +
                                ref_name(b) + "~" + ref_name(c);
            account(std::string("bridge3.") + cell::layer_name(layer), w);
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
    const auto add_open = [&](OpenKey key, double w, std::string desc,
                              const std::string& cls) {
        if (w <= 0.0) return;
        auto [it, fresh] = opens.try_emplace(std::move(key),
                                             std::pair{0.0, std::move(desc)});
        it->second.first += w;
        (void)fresh;
        account(cls, w);
    };

    for (const FlatShape& s : flat) {
        double w = 0.0;
        std::string cls;
        if (conducting_layer(s.layer)) {
            const double density = stats.opens(s.layer);
            if (density <= 0.0) continue;
            const double len = static_cast<double>(
                std::max(s.rect.width(), s.rect.height()));
            const double wid = static_cast<double>(
                std::min(s.rect.width(), s.rect.height()));
            w = density * open_weight(len, wid, stats.x0);
            cls = std::string("open.") + cell::layer_name(s.layer);
        } else if (cut_layer(s.layer)) {
            w = stats.contact_open_density * static_cast<double>(s.rect.area());
            cls = "open.cut";
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
                add_open(std::move(key), w,
                         "open in instance " + std::to_string(s.instance) +
                             " transistor path",
                         cls);
            } else {
                key.kind = ExtractedFault::Kind::GateFloat;
                if (s.info.t1 >= 0)
                    key.transistors.push_back({s.instance, s.info.t1});
                if (s.info.t2 >= 0)
                    key.transistors.push_back({s.instance, s.info.t2});
                if (key.transistors.empty()) continue;
                add_open(std::move(key), w,
                         "floating gate in instance " +
                             std::to_string(s.instance),
                         cls);
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
                add_open(std::move(key), w,
                         "PO pad open on " +
                             chip.circuit.gate(net).name,
                         cls);
            } else {
                key.kind = ExtractedFault::Kind::NetOpen;
                key.net = net;
                key.sink = s.route_sink >= 0 ? s.route_sink : -1;
                add_open(std::move(key), w,
                         "routing open on " + chip.circuit.gate(net).name,
                         cls);
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
