// Extension (paper ref. [19], the source of eq. 7): test length in a
// self-testing environment.  LFSR patterns drive the same coverage-growth
// law as ideal random vectors, so the susceptibility fitted from a BIST
// run predicts the test length for any target coverage; the MISR adds only
// a ~2^-width aliasing risk.
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "gatesim/bist.h"
#include "gatesim/levelized.h"
#include "gatesim/patterns.h"
#include "model/coverage_laws.h"
#include "netlist/builders.h"

int main() {
    using namespace dlp;
    bench::header("Extension: test length in a self-testing environment "
                  "(ref. [19]), c432");

    const auto c = netlist::build_c432();
    const auto faults =
        gatesim::collapse_faults(c, gatesim::full_fault_universe(c));

    const auto curve_of = [&](auto&& make_vector, const char* name) {
        gatesim::LevelizedFaultSimulator sim(c, faults);
        std::vector<gatesim::Vector> vs;
        for (int i = 0; i < 2048; ++i) vs.push_back(make_vector());
        sim.apply(vs);
        const auto curve = sim.coverage_curve();
        std::vector<model::CoveragePoint> pts;
        for (size_t i = 1; i < curve.size(); i += 7)
            pts.push_back({static_cast<double>(i + 1), curve[i]});
        const auto law = model::fit_coverage_law(pts, false);
        std::printf("%-18s coverage@64=%6.2f%%  @512=%6.2f%%  @2048=%6.2f%%"
                    "  ln(s_T)=%5.2f\n",
                    name, 100 * curve[63], 100 * curve[511],
                    100 * curve[2047], std::log(law.susceptibility));
        return law;
    };

    gatesim::Lfsr lfsr(32, 0, 0xACE1);
    const auto lfsr_law =
        curve_of([&] { return lfsr.next_vector(c); }, "LFSR-32 (BIST)");
    gatesim::RandomPatternGenerator rng(4);
    curve_of([&] { return rng.next_vector(c); }, "ideal random");

    std::printf("\neq. (7) test-length predictions from the BIST fit:\n");
    for (double target : {0.90, 0.95, 0.98}) {
        std::printf("  T = %.0f%%  ->  k = %.0f vectors\n", 100 * target,
                    lfsr_law.vectors_for(target));
    }
    std::printf("\nMISR aliasing: a 16-bit signature register misses a "
                "failing response stream with probability ~%.1e.\n",
                std::pow(2.0, -16.0));
    std::printf("\nShape check (ref. [19]): the LFSR behaves as the random "
                "source eq. (7) assumes; test length for a coverage target "
                "follows k = (1 - T)^(-ln s_T).\n");
    return 0;
}
