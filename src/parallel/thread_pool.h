// Shared fork-join thread pool: a fixed set of persistent worker threads
// that parallel regions (see parallel_for.h) fan work out to.  Workers are
// lazily spawned up to the largest participant count ever requested and
// sleep between regions, so a region costs one wake/sleep round trip, not a
// thread spawn.
//
// Worker 0 is always the calling thread; a region with `participants == 1`
// (or one opened from inside another region) runs entirely inline, which is
// what makes the serial path and the nested case trivially correct.  The
// pool hosts one region at a time: a top-level caller that finds it busy
// (another thread's region is running) also runs inline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dlp::parallel {

class ThreadPool {
public:
    /// The process-wide pool all parallel regions share.
    static ThreadPool& global();

    /// Runs job(worker) for worker = 0..participants-1, worker 0 on the
    /// calling thread, and blocks until every participant returns.  Calls
    /// from inside a running region, and calls made while another thread
    /// holds the pool, execute job(0) inline (no deadlock, and
    /// work-stealing loops still cover the whole range from one worker).
    /// `job` must not throw; parallel_for converts exceptions before here.
    void run(int participants, const std::function<void(int)>& job);

    /// True while the current thread is executing inside a region.
    static bool in_parallel_region();

    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

private:
    ThreadPool() = default;
    void helper_loop(int worker_id);

    std::mutex region_mu_;  ///< held by the thread whose region is running
    std::mutex mu_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    std::vector<std::thread> helpers_;          ///< helper i has worker id i+1
    const std::function<void(int)>* job_ = nullptr;
    std::uint64_t generation_ = 0;  ///< bumped per region; wakes helpers
    int active_helpers_ = 0;        ///< helpers participating this region
    int remaining_ = 0;             ///< participants still running
    bool shutdown_ = false;
};

}  // namespace dlp::parallel
