#include "parallel/thread_pool.h"

#include "obs/telemetry.h"

namespace dlp::parallel {

namespace {
thread_local bool tl_in_region = false;
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool;
    return pool;
}

bool ThreadPool::in_parallel_region() { return tl_in_region; }

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    cv_start_.notify_all();
    for (std::thread& t : helpers_) t.join();
}

void ThreadPool::run(int participants, const std::function<void(int)>& job) {
    const auto run_inline = [&] {
        const bool prev = tl_in_region;
        tl_in_region = true;
        job(0);
        tl_in_region = prev;
    };
    if (participants <= 1 || tl_in_region) return run_inline();
    // One region at a time: the job_/remaining_/generation_ slot below is
    // shared by every helper.
    std::unique_lock<std::mutex> region(region_mu_, std::try_to_lock);
    if (!region.owns_lock()) return run_inline();
    {
        std::lock_guard<std::mutex> lock(mu_);
        while (static_cast<int>(helpers_.size()) < participants - 1) {
            const int id = static_cast<int>(helpers_.size()) + 1;
            helpers_.emplace_back([this, id] { helper_loop(id); });
        }
        job_ = &job;
        active_helpers_ = participants - 1;
        remaining_ = participants - 1;
        ++generation_;
    }
    cv_start_.notify_all();

    tl_in_region = true;
    job(0);
    tl_in_region = false;

    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
}

void ThreadPool::helper_loop(int worker_id) {
    obs::set_thread_name("pool-" + std::to_string(worker_id));
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(int)>* job = nullptr;
        // Idle = time parked on cv_start_ between jobs; clock reads only
        // happen while collection is on.
        DLP_OBS_COUNTER(c_idle, "pool.idle_ns");
        const std::int64_t idle_t0 = obs::enabled() ? obs::now_ns() : 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_start_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (idle_t0 != 0) DLP_OBS_ADD(c_idle, obs::now_ns() - idle_t0);
            if (shutdown_) return;
            seen = generation_;
            if (worker_id <= active_helpers_) job = job_;
        }
        if (!job) continue;  // spawned for a wider region than this one
        DLP_OBS_COUNTER(c_tasks, "pool.tasks");
        DLP_OBS_ADD(c_tasks, 1);
        tl_in_region = true;
        (*job)(worker_id);
        tl_in_region = false;
        bool done = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            done = --remaining_ == 0;
        }
        if (done) cv_done_.notify_one();
    }
}

}  // namespace dlp::parallel
