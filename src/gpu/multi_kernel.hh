/**
 * @file
 * Multi-kernel execution policies (the paper's third mechanism).
 *
 *  - Sequential: kernels run back-to-back on the whole GPU (the classic
 *    execution model).
 *  - Spatial: concurrent kernels on disjoint core subsets (Fermi-style
 *    concurrent kernel execution).
 *  - Mixed (MCK): concurrent kernels share every core; LCS monitoring
 *    limits each kernel to its per-core N_opt so the leftover resources
 *    host the partner kernel's CTAs.
 */

#ifndef BSCHED_GPU_MULTI_KERNEL_HH
#define BSCHED_GPU_MULTI_KERNEL_HH

#include <vector>

#include "gpu/gpu.hh"
#include "kernel/kernel_info.hh"
#include "sim/config.hh"

namespace bsched {

/** How concurrent kernels share the machine. */
enum class MultiKernelPolicy
{
    Sequential,
    Spatial,
    Mixed,
};

const char* toString(MultiKernelPolicy policy);

/** Outcome of a multi-kernel run. */
struct MultiKernelReport
{
    MultiKernelPolicy policy{};
    Cycle totalCycles = 0;
    /** Per-kernel cycles when run alone on the whole GPU. */
    std::vector<Cycle> isolatedCycles;
    /** Per-kernel cycles under the policy (launch to completion). */
    std::vector<Cycle> sharedCycles;
    StatSet stats;

    /** System throughput: sum of per-kernel isolated/shared speedups. */
    double stp() const;

    /** Average normalized turnaround time: mean of shared/isolated. */
    double antt() const;

    /** Worst per-kernel slowdown: max over kernels of shared/isolated.
     *  ANTT hides a starved kernel behind the mean; this surfaces it. */
    double maxSlowdown() const;

    /**
     * Min-max fairness (Eyerman & Eeckhout): the smallest per-kernel
     * normalized progress divided by the largest, in (0, 1]. 1 means
     * every kernel suffered the same slowdown; values near 0 mean one
     * kernel monopolized the machine.
     */
    double fairness() const;
};

/**
 * Run @p kernels under @p policy on @p config. For Spatial, cores are
 * split evenly (in launch order) unless @p spatial_split gives explicit
 * boundaries (ascending core indices, one per kernel boundary).
 * Isolated baselines are simulated with the same config on the full
 * machine, unless @p isolated_cycles supplies precomputed values (one
 * per kernel, each > 0), which avoids re-simulating them across
 * policies and mixes that share kernels.
 */
MultiKernelReport runMultiKernel(const GpuConfig& config,
                                 const std::vector<const KernelInfo*>& kernels,
                                 MultiKernelPolicy policy,
                                 std::vector<int> spatial_split = {},
                                 const std::vector<Cycle>* isolated_cycles =
                                     nullptr);

} // namespace bsched

#endif // BSCHED_GPU_MULTI_KERNEL_HH
