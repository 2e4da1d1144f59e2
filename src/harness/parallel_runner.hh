/**
 * @file
 * Parallel experiment harness: fan independent (GpuConfig, KernelInfo)
 * simulation points out across worker threads and collect the results in
 * deterministic submission order.
 *
 * Repeats. Experiments declare the same point more than once (every
 * oracle is the same static-limit sweep). run() compares points by value
 * with the defaulted operator== of GpuConfig and KernelInfo, simulates
 * the first occurrence of each distinct point and copies its result into
 * every repeat. The compiler-generated equality covers every field,
 * including fields added later, so no key needs maintaining.
 *
 * Threading model. Each grid point owns a private Gpu built from its own
 * by-value GpuConfig and KernelInfo copies. The simulator core keeps no
 * mutable process-wide state (the only global knob, the log level, is
 * read-only during a run), so concurrent points share nothing and the
 * sim core needs no locking — see the static_assert pinning this
 * invariant in parallel_runner.cc. Every worker writes its RunResult
 * into a pre-sized slot indexed by the point's submission position, so
 * the output vector is byte-identical for any job count, including 1.
 *
 * Job-count resolution (resolveJobs): an explicit request wins, then the
 * BSCHED_JOBS environment variable, then std::thread::hardware_concurrency.
 */

#ifndef BSCHED_HARNESS_PARALLEL_RUNNER_HH
#define BSCHED_HARNESS_PARALLEL_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace bsched {

/** One independent simulation point of an experiment grid. */
struct SimPoint
{
    GpuConfig config;
    KernelInfo kernel;
    std::string label; ///< free-form tag for reporting (optional)
};

/**
 * Resolve an effective worker count: @p requested if positive, else the
 * BSCHED_JOBS environment variable if set and positive, else the
 * hardware concurrency (at least 1).
 */
unsigned resolveJobs(unsigned requested = 0);

/**
 * For each point, the index of the first point with an equal GpuConfig
 * and KernelInfo (the label is not compared). Point i is distinct when
 * the result holds i; ParallelRunner::run simulates only those.
 */
std::vector<std::size_t> firstOccurrences(const std::vector<SimPoint>& points);

/**
 * Enable/disable the grid-progress heartbeat: when on, every
 * ParallelRunner fan-out reports "completed/total points (N requested)"
 * to stderr (run() counts the distinct points it simulates against the
 * points requested), rate-limited to a few updates per second, with a
 * closing line when the grid finishes. Off by default so CI logs stay
 * clean; the bench binaries turn it on with `--progress` (or
 * BSCHED_PROGRESS=1). Like the log level, this is a process-wide knob
 * that must be set before runs start — it is read-only while a grid is
 * in flight, which keeps the harness's no-shared-mutable-state contract
 * intact.
 */
void setHarnessProgress(bool enabled);

/** Current state of the heartbeat knob. */
bool harnessProgressEnabled();

/** Fans independent simulation points across a worker pool. */
class ParallelRunner
{
  public:
    /** @p jobs as for resolveJobs(); 0 picks the default. */
    explicit ParallelRunner(unsigned jobs = 0);

    /** Effective worker count. */
    unsigned jobs() const { return jobs_; }

    /**
     * Simulate every distinct point once; results in submission order,
     * a repeat holding a copy of its first occurrence's result.
     */
    std::vector<RunResult> run(const std::vector<SimPoint>& points) const;

    /**
     * Generic fan-out: out[i] = fn(i) for i in [0, n), computed across
     * the pool. @p fn must be safe to call concurrently from several
     * threads (the simulation-point rule: no shared mutable state).
     */
    template <typename T>
    std::vector<T> map(std::size_t n,
                       const std::function<T(std::size_t)>& fn) const
    {
        std::vector<T> out(n);
        forEachIndex(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /** Run fn(i) for every i in [0, n) across the pool. */
    void forEachIndex(std::size_t n,
                      const std::function<void(std::size_t)>& fn) const;

  private:
    /** forEachIndex whose heartbeat names @p requested as the total asked. */
    void fanOut(std::size_t n, std::size_t requested,
                const std::function<void(std::size_t)>& fn) const;

    unsigned jobs_;
};

/** Convenience: ParallelRunner(jobs).run(points). */
std::vector<RunResult> runGrid(const std::vector<SimPoint>& points,
                               unsigned jobs = 0);

} // namespace bsched

#endif // BSCHED_HARNESS_PARALLEL_RUNNER_HH
