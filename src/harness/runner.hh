/**
 * @file
 * Experiment harness: single-kernel runs and the static CTA-limit
 * oracle. Shared by the bench binaries, examples and the integration
 * tests.
 */

#ifndef BSCHED_HARNESS_RUNNER_HH
#define BSCHED_HARNESS_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "kernel/kernel_info.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace bsched {

/** Outcome of one simulated kernel run. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t instrs = 0;
    double ipc = 0.0;
    StatSet stats;

    /** Aggregate L1D miss rate across all cores (loads + stores). */
    double l1MissRate() const;

    /** Aggregate L2 miss rate across partitions. */
    double l2MissRate() const;

    /** DRAM row-buffer hit rate across channels. */
    double dramRowHitRate() const;
};

/** Run one kernel to completion under @p config. */
RunResult runKernel(const GpuConfig& config, const KernelInfo& kernel);

/**
 * Run one kernel with observability hooks attached (tracing and/or
 * interval sampling). The pointers in @p obs are non-owning and the
 * counters/events accumulate into the caller's objects; the simulated
 * outcome is identical to the unobserved overload.
 */
RunResult runKernel(const GpuConfig& config, const KernelInfo& kernel,
                    Observer obs);

/** Run a suite workload by name. */
RunResult runWorkload(const GpuConfig& config, const std::string& name);

/** The static-best CTA limit for a kernel (the paper's oracle). */
struct OracleResult
{
    std::uint32_t bestLimit = 0;
    std::uint32_t maxLimit = 0;
    std::vector<RunResult> byLimit; ///< index = limit - 1
};

/**
 * The oracle of each kernel in @p kernels: run it under @p config once
 * per static CTA limit from 1 to its occupancy max, and pick the limit
 * with the best IPC (the lowest limit on a tie). Every kernel's sweep
 * runs in one grid across @p jobs worker threads (0 = resolveJobs()
 * default); results are identical for any job count and come back in
 * the order of @p kernels.
 */
std::vector<OracleResult> oracleStaticBest(
    const GpuConfig& config, const std::vector<KernelInfo>& kernels,
    unsigned jobs = 0);

/** Convenience: a GTX480-class config with the given policies. */
GpuConfig makeConfig(WarpSchedKind warp_sched, CtaSchedKind cta_sched);

} // namespace bsched

#endif // BSCHED_HARNESS_RUNNER_HH
