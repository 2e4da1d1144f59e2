#include "harness/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>

#include "harness/thread_pool.hh"

namespace bsched {

namespace {

std::atomic<bool> g_progress{false};

/**
 * Stderr heartbeat for one grid: thread-safe, rate-limited to one line
 * per 100ms, always reporting the final point so "n/n" is never lost.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::size_t total, std::size_t requested)
        : total_(total), requested_(requested), start_(Clock::now()),
          lastPrint_(start_)
    {}

    void
    completed()
    {
        const std::size_t done = ++done_;
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        if (done != total_ &&
            now - lastPrint_ < std::chrono::milliseconds(100)) {
            return;
        }
        lastPrint_ = now;
        const double secs =
            std::chrono::duration<double>(now - start_).count();
        const double rate =
            secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
        std::fprintf(stderr,
                     "harness: %zu/%zu points (%zu requested, %.1f "
                     "points/s)%s",
                     done, total_, requested_, rate,
                     done == total_ ? "\n" : "\r");
        std::fflush(stderr);
    }

  private:
    using Clock = std::chrono::steady_clock;

    std::size_t total_;
    std::size_t requested_;
    std::atomic<std::size_t> done_{0};
    std::mutex mutex_;
    Clock::time_point start_;
    Clock::time_point lastPrint_;
};

} // namespace

void
setHarnessProgress(bool enabled)
{
    g_progress.store(enabled, std::memory_order_relaxed);
}

bool
harnessProgressEnabled()
{
    return g_progress.load(std::memory_order_relaxed);
}

// The lock-free contract of the grid runner: a point must be able to own
// private copies of its inputs. If GpuConfig or KernelInfo ever grow
// reference semantics (shared caches, interned programs, global pools),
// concurrent points would start aliasing state and the no-locking claim
// below breaks — revisit ParallelRunner before removing these.
static_assert(std::is_copy_constructible_v<GpuConfig>,
              "grid points must own their GpuConfig copy");
static_assert(std::is_copy_constructible_v<KernelInfo>,
              "grid points must own their KernelInfo copy");

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char* env = std::getenv("BSCHED_JOBS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(resolveJobs(jobs))
{}

std::vector<std::size_t>
firstOccurrences(const std::vector<SimPoint>& points)
{
    std::vector<std::size_t> first(points.size());
    std::vector<std::size_t> distinct;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto same = [&](std::size_t j) {
            return points[j].config == points[i].config &&
                points[j].kernel == points[i].kernel;
        };
        const auto it = std::find_if(distinct.begin(), distinct.end(), same);
        first[i] = it == distinct.end() ? i : *it;
        if (first[i] == i)
            distinct.push_back(i);
    }
    return first;
}

void
ParallelRunner::forEachIndex(std::size_t n,
                             const std::function<void(std::size_t)>& fn) const
{
    fanOut(n, n, fn);
}

void
ParallelRunner::fanOut(std::size_t n, std::size_t requested,
                       const std::function<void(std::size_t)>& fn) const
{
    if (n == 0)
        return;
    const bool progress = harnessProgressEnabled();
    ProgressMeter meter(n, requested);
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
            if (progress)
                meter.completed();
        }
        return;
    }
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&fn, &meter, progress, i] {
            fn(i);
            if (progress)
                meter.completed();
        });
    }
    pool.wait();
}

std::vector<RunResult>
ParallelRunner::run(const std::vector<SimPoint>& points) const
{
    const std::vector<std::size_t> first = firstOccurrences(points);
    std::vector<std::size_t> distinct;
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (first[i] == i)
            distinct.push_back(i);
    }
    // Each distinct point writes its own slot; repeats are filled after
    // the fan-out, so no slot is read while a worker may write it.
    std::vector<RunResult> out(points.size());
    fanOut(distinct.size(), points.size(), [&](std::size_t d) {
        const SimPoint& point = points[distinct[d]];
        out[distinct[d]] = runKernel(point.config, point.kernel);
    });
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (first[i] != i)
            out[i] = out[first[i]];
    }
    return out;
}

std::vector<RunResult>
runGrid(const std::vector<SimPoint>& points, unsigned jobs)
{
    return ParallelRunner(jobs).run(points);
}

} // namespace bsched
