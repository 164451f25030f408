// The parallel engine's contract: full disjoint coverage of [0, n),
// deterministic reductions, scoped worker-count resolution, exception
// propagation, and nested-region safety.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "support/cancel.h"

namespace dlp::parallel {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    for (size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul, 4097ul}) {
        for (size_t grain : {1ul, 3ul, 64ul, 5000ul}) {
            for (int threads : {1, 2, 4, 8}) {
                std::vector<std::atomic<int>> hits(n);
                parallel_for(
                    n, grain,
                    [&](size_t b, size_t e, int) {
                        for (size_t i = b; i < e; ++i)
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                    },
                    threads);
                for (size_t i = 0; i < n; ++i)
                    ASSERT_EQ(hits[i].load(), 1)
                        << "n=" << n << " grain=" << grain
                        << " threads=" << threads << " i=" << i;
            }
        }
    }
}

TEST(ParallelFor, WorkerIdsInRange) {
    const int threads = 8;
    std::atomic<bool> ok{true};
    parallel_for(
        10000, 16,
        [&](size_t, size_t, int w) {
            if (w < 0 || w >= threads) ok = false;
        },
        threads);
    EXPECT_TRUE(ok.load());
}

TEST(ParallelFor, MoreThreadsThanItems) {
    std::vector<std::atomic<int>> hits(3);
    parallel_for(
        3, 1,
        [&](size_t b, size_t e, int) {
            for (size_t i = b; i < e; ++i) hits[i]++;
        },
        16);
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
    // Harmonic-ish sum: float addition is non-associative, so bit equality
    // across thread counts proves the chunk combination order is fixed.
    const size_t n = 100000;
    const auto sum_with = [&](int threads) {
        return parallel_reduce(
            n, 128, 0.0,
            [](size_t b, size_t e) {
                double s = 0.0;
                for (size_t i = b; i < e; ++i)
                    s += 1.0 / static_cast<double>(i + 1);
                return s;
            },
            [](double a, double b) { return a + b; }, threads);
    };
    const double serial = sum_with(1);
    EXPECT_GT(serial, 1.0);
    for (int threads : {2, 4, 8})
        EXPECT_EQ(sum_with(threads), serial) << threads << " threads";
}

TEST(ResolveThreads, ExplicitBeatsScopedBeatsDefault) {
    EXPECT_GE(resolve_threads(0), 1);
    EXPECT_EQ(resolve_threads(3), 3);
    {
        ScopedThreads scope(5);
        EXPECT_EQ(resolve_threads(0), 5);
        EXPECT_EQ(resolve_threads(2), 2) << "explicit request wins";
        {
            ScopedThreads inner(7);
            EXPECT_EQ(resolve_threads(0), 7);
        }
        EXPECT_EQ(resolve_threads(0), 5) << "inner scope restored";
    }
    EXPECT_GE(resolve_threads(0), 1) << "outer scope restored";
}

TEST(ParallelFor, PropagatesBodyException) {
    EXPECT_THROW(
        parallel_for(
            1000, 8,
            [&](size_t b, size_t, int) {
                if (b >= 496) throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<int> count{0};
    parallel_for(
        100, 8, [&](size_t b, size_t e, int) { count += int(e - b); }, 4);
    EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, NestedRegionRunsInline) {
    std::atomic<int> outer{0};
    std::atomic<int> inner{0};
    parallel_for(
        8, 1,
        [&](size_t b, size_t e, int) {
            outer += int(e - b);
            // A nested region must not deadlock on the shared pool; it runs
            // serially on the calling worker.
            parallel_for(
                10, 2, [&](size_t ib, size_t ie, int) { inner += int(ie - ib); },
                4);
        },
        4);
    EXPECT_EQ(outer.load(), 8);
    EXPECT_EQ(inner.load(), 80);
}

TEST(ParallelFor, BodyExceptionRethrownExactlyOnceAndStopsClaims) {
    // One chunk throws immediately; every other chunk sleeps, so by the
    // time a handful of slow chunks finish, the failure flag is long set
    // and the remaining claims must be abandoned.
    const size_t n = 10000;
    std::atomic<int> executed{0};
    int caught = 0;
    try {
        parallel_for(
            n, 1,
            [&](size_t b, size_t, int) {
                if (b == 0) throw std::runtime_error("injected");
                executed.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            },
            4);
    } catch (const std::runtime_error& e) {
        ++caught;
        EXPECT_STREQ(e.what(), "injected");
    }
    EXPECT_EQ(caught, 1);
    EXPECT_LT(executed.load(), static_cast<int>(n) / 2)
        << "chunks kept running after a worker threw";
    // The pool must still be usable afterwards.
    std::atomic<int> count{0};
    parallel_for(
        100, 8, [&](size_t b, size_t e, int) { count += int(e - b); }, 4);
    EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, ConcurrentThrowsFromAllWorkersPropagateOne) {
    for (int round = 0; round < 8; ++round) {
        EXPECT_THROW(
            parallel_for(
                64, 1, [&](size_t, size_t, int) { throw 42; }, 4),
            int);
    }
    std::atomic<int> count{0};
    parallel_for(
        100, 8, [&](size_t b, size_t e, int) { count += int(e - b); }, 4);
    EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForCancel, PreCancelledRunsNothing) {
    support::CancelToken token;
    token.request();
    for (int threads : {1, 4}) {
        std::atomic<int> executed{0};
        parallel_for(
            1000, 8,
            [&](size_t, size_t, int) {
                executed.fetch_add(1, std::memory_order_relaxed);
            },
            threads, &token);
        EXPECT_EQ(executed.load(), 0) << threads << " threads";
    }
}

TEST(ParallelForCancel, MidRunCancelReturnsNormallyPoolReusable) {
    for (int threads : {1, 4}) {
        support::CancelToken token;
        std::atomic<int> executed{0};
        parallel_for(
            100000, 1,
            [&](size_t, size_t, int) {
                if (executed.fetch_add(1, std::memory_order_relaxed) == 16)
                    token.request();
            },
            threads, &token);
        EXPECT_GT(executed.load(), 0);
        EXPECT_LT(executed.load(), 100000) << threads << " threads";
        // The token only stops this region; the pool is intact.
        std::atomic<int> count{0};
        parallel_for(
            100, 8, [&](size_t b, size_t e, int) { count += int(e - b); },
            threads);
        EXPECT_EQ(count.load(), 100);
    }
}

TEST(ParallelForCancel, UncancelledTokenStillCoversEverything) {
    support::CancelToken token;
    std::vector<std::atomic<int>> hits(513);
    parallel_for(
        hits.size(), 7,
        [&](size_t b, size_t e, int) {
            for (size_t i = b; i < e; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        },
        4, &token);
    for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForConcurrent, TopLevelRegionsFromManyThreadsEachCoverTheirRange) {
    // Several unrelated threads (as the service's workers do) open
    // top-level regions on the shared pool at once.  Each caller's range
    // must be covered exactly once; a region that loses the race for the
    // pool runs inline on its caller.  A broken pool hangs instead of
    // failing, so the callers are awaited with a bound.
    constexpr int kCallers = 6;
    constexpr int kRounds = 200;
    constexpr size_t kN = 4096;
    std::atomic<int> bad{0};
    std::atomic<int> finished{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t)
        callers.emplace_back([&] {
            std::vector<std::atomic<int>> hits(kN);
            for (int round = 0; round < kRounds; ++round) {
                for (auto& h : hits) h.store(0, std::memory_order_relaxed);
                parallel_for(
                    kN, 16,
                    [&](size_t b, size_t e, int) {
                        for (size_t i = b; i < e; ++i)
                            hits[i].fetch_add(1, std::memory_order_relaxed);
                    },
                    4);
                for (const auto& h : hits)
                    if (h.load() != 1) ++bad;
            }
            ++finished;
        });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (finished.load() < kCallers &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (finished.load() < kCallers) {
        ADD_FAILURE() << "concurrent parallel_for callers hung ("
                      << finished.load() << "/" << kCallers << " done)";
        std::abort();  // the stuck callers cannot be joined
    }
    for (std::thread& t : callers) t.join();
    EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, ReportsParallelRegion) {
    EXPECT_FALSE(ThreadPool::in_parallel_region());
    std::atomic<bool> saw_region{false};
    parallel_for(
        4, 1,
        [&](size_t, size_t, int) {
            if (ThreadPool::in_parallel_region()) saw_region = true;
        },
        2);
    EXPECT_TRUE(saw_region.load());
    EXPECT_FALSE(ThreadPool::in_parallel_region());
}

}  // namespace
}  // namespace dlp::parallel
