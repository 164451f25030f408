// Test-only reference PODEM: the full-resimulation implementation the
// event-driven `atpg::Podem` replaced.  Every imply() re-evaluates both
// machines over the whole circuit, and x_path_exists/objective scan every
// net, so it is slow but obviously faithful to the textbook algorithm.
// test_atpg runs it side by side with the production class and requires
// identical results (status, test, backtracks, implications, stop).  It
// counts `gate_evals` as one evaluation per gate per imply() pass.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "atpg/podem.h"

namespace dlp::atpg::reference {

class ReferencePodem {
public:
    ReferencePodem(const Circuit& circuit, Testability testability);

    PodemResult generate(const StuckAtFault& fault, int backtrack_limit,
                         std::uint64_t x_fill = 0,
                         const support::RunBudget* budget = nullptr);

private:
    void imply(const StuckAtFault& fault);
    bool detected() const;
    bool excitation_impossible(const StuckAtFault& fault) const;
    std::optional<std::pair<NetId, V3>> objective(const StuckAtFault& fault);
    std::pair<size_t, V3> backtrace(NetId net, V3 value) const;
    bool x_path_exists(const StuckAtFault& fault) const;

    const Circuit& circuit_;
    Testability testability_;
    std::vector<std::vector<NetId>> fanouts_;
    std::vector<size_t> pi_index_of_net_;  // kNoPi for non-input nets
    std::vector<V3> pi_;                   // current PI assignment
    std::vector<V3> good_;
    std::vector<V3> faulty_;
};

}  // namespace dlp::atpg::reference
