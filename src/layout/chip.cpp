#include "layout/chip.h"

namespace dlp::layout {

cell::NetRef resolve_local_net(const ChipLayout& chip, std::int32_t instance,
                               int local_net) {
    const PlacedCell& pc = chip.cells[static_cast<size_t>(instance)];
    if (local_net == cell::Cell::kGnd) return cell::NetRef::power(false);
    if (local_net == cell::Cell::kVdd) return cell::NetRef::power(true);
    for (size_t p = 0; p < pc.cell->pins.size(); ++p) {
        if (pc.cell->pins[p].net != local_net) continue;
        if (pc.cell->pins[p].name == "Y")
            return cell::NetRef::circuit(pc.gate);
        return cell::NetRef::circuit(pc.input_nets[p]);
    }
    return cell::NetRef::internal(instance, local_net);
}

std::vector<FlatShape> flatten(const ChipLayout& chip) {
    // Sized upfront: growing by doubling leaves a trail of freed buffers
    // that the heap keeps resident across runs.
    std::size_t count = chip.routing.size();
    for (const PlacedCell& pc : chip.cells) count += pc.cell->shapes.size();
    std::vector<FlatShape> out;
    out.reserve(count);
    for (size_t inst = 0; inst < chip.cells.size(); ++inst) {
        const PlacedCell& pc = chip.cells[inst];
        for (const cell::LocalShape& s : pc.cell->shapes) {
            FlatShape f;
            f.layer = s.layer;
            f.rect = s.rect.translated(pc.x, pc.y);
            f.instance = static_cast<std::int32_t>(inst);
            f.info = s.info;
            f.net = resolve_local_net(chip, static_cast<std::int32_t>(inst),
                                      s.net);
            out.push_back(f);
        }
    }
    for (const RouteShape& r : chip.routing) {
        FlatShape f;
        f.layer = r.layer;
        f.rect = r.rect;
        f.net = cell::NetRef::circuit(r.net);
        f.instance = -1;
        f.route_sink = r.sink;
        out.push_back(f);
    }
    return out;
}

std::vector<FlatGateRegion> flatten_gate_regions(const ChipLayout& chip) {
    std::vector<FlatGateRegion> out;
    for (size_t inst = 0; inst < chip.cells.size(); ++inst) {
        const PlacedCell& pc = chip.cells[inst];
        for (const cell::GateRegion& g : pc.cell->gate_regions)
            out.push_back({g.rect.translated(pc.x, pc.y),
                           static_cast<std::int32_t>(inst), g.transistor});
    }
    return out;
}

std::vector<std::int64_t> layer_areas(const ChipLayout& chip) {
    std::vector<std::int64_t> areas(cell::kLayerCount, 0);
    for (const FlatShape& s : flatten(chip))
        areas[static_cast<size_t>(s.layer)] += s.rect.area();
    return areas;
}

}  // namespace dlp::layout
