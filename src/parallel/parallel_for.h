// Chunked work-stealing parallel loops with deterministic results.
//
// The contract every caller leans on: what gets computed depends only on the
// *items*, never on the worker count or the execution interleaving.
// parallel_for gives each worker a contiguous shard of [0, n) and lets idle
// workers steal grain-sized chunks from other shards, so wall-clock balances
// even when per-item cost is wildly skewed (fault simulation is); results
// must be written to per-item slots (or per-worker scratch) by the body.
// parallel_reduce fixes the chunk partition up front and combines partial
// results serially in chunk order, so floating-point reductions are
// bit-identical for any worker count.
//
// Concurrency model: the shared pool hosts ONE top-level region at a time.
// A region opened while another is running — nested on the same thread, or
// from an unrelated thread — executes serially inline on its caller
// (correct, just not parallel), so any number of threads may call
// parallel_for concurrently.
//
// Telemetry: a region that actually goes parallel records a
// "parallel_for" span plus parallel.regions/chunks/steals and pool.*
// counters (see src/obs/telemetry.h).  The chunk/steal split races by
// design and is excluded from the determinism contract; everything the
// body computes is covered by it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "support/cancel.h"

namespace dlp::parallel {

/// Worker-count request for a parallel region.  0 picks the scoped /
/// environment default (see resolve_threads); 1 forces the serial path.
struct ParallelOptions {
    int threads = 0;
};

/// Resolves a requested worker count, in priority order: the explicit
/// request, an enclosing ScopedThreads, the DLPROJ_THREADS environment
/// variable, then std::thread::hardware_concurrency().  Always >= 1.
int resolve_threads(int requested);
inline int resolve_threads(const ParallelOptions& options) {
    return resolve_threads(options.threads);
}

/// RAII default-worker-count override for the enclosing scope (per thread):
/// every parallel region below that does not request an explicit count uses
/// this one.  Nests; destruction restores the previous default.
class ScopedThreads {
public:
    explicit ScopedThreads(int threads);
    ~ScopedThreads();
    ScopedThreads(const ScopedThreads&) = delete;
    ScopedThreads& operator=(const ScopedThreads&) = delete;

private:
    int prev_;
};

/// Runs body(begin, end, worker) over disjoint chunks of [0, n), each at
/// most `grain` items, from `resolve_threads(threads)` workers.  `worker`
/// indexes per-worker scratch (dense, 0-based, stable within the call).
/// Exceptions thrown by the body cancel remaining chunks and the first one
/// is rethrown on the calling thread; the shared pool stays usable.
///
/// Preconditions: `body` must tolerate any chunk-to-worker assignment
/// (write only to per-item slots or worker-indexed scratch, no order
/// dependence between chunks) — that is what makes results independent of
/// the worker count.  `body` outlives the call (it blocks until every
/// chunk finished or was abandoned).
///
/// `cancel` enables cooperative cancellation: the token is checked before
/// every chunk claim (including on the serial path, which then runs
/// chunk-by-chunk), so a cancelled region stops issuing new chunks and
/// returns normally once in-flight chunks finish.  Which items ran is
/// unspecified after a cancel — callers needing prefix-consistent partial
/// results must cancel at their own unit boundaries instead (see the fault
/// simulators' budget-aware apply()).
void parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t begin, std::size_t end, int worker)>&
        body,
    int threads = 0, const support::CancelToken* cancel = nullptr);

/// Deterministic chunked reduction: map(begin, end) is evaluated once per
/// fixed grain-sized chunk of [0, n) and the partials are combined serially
/// in chunk order, so the result is bit-identical for any worker count.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t n, std::size_t grain, T init, MapFn map,
                  CombineFn combine, int threads = 0) {
    if (grain == 0) grain = 1;
    const std::size_t chunks = (n + grain - 1) / grain;
    std::vector<T> partial(chunks, init);
    parallel_for(
        chunks, 1,
        [&](std::size_t cb, std::size_t ce, int) {
            for (std::size_t c = cb; c < ce; ++c) {
                const std::size_t b = c * grain;
                partial[c] = map(b, std::min(n, b + grain));
            }
        },
        threads);
    T acc = init;
    for (std::size_t c = 0; c < chunks; ++c) acc = combine(acc, partial[c]);
    return acc;
}

}  // namespace dlp::parallel
