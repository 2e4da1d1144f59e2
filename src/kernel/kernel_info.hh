/**
 * @file
 * Static description of a kernel launch: grid/CTA geometry, per-thread
 * resource usage, the shared warp program, and the paper's Type-1/2/3
 * classification used by the experiment harness.
 */

#ifndef BSCHED_KERNEL_KERNEL_INFO_HH
#define BSCHED_KERNEL_KERNEL_INFO_HH

#include <cstdint>
#include <string>

#include "kernel/dim3.hh"
#include "kernel/warp_program.hh"

namespace bsched {

/** The paper's IPC-vs-CTA-count taxonomy. */
enum class WorkloadType : std::uint8_t
{
    Unknown = 0,
    Saturating = 1, ///< Type-1: IPC flat beyond a few CTAs
    Increasing = 2, ///< Type-2: IPC rises to the max CTA count
    Peaked = 3,     ///< Type-3: IPC peaks below the max, then falls
};

const char* toString(WorkloadType type);

/** Everything the GPU needs to launch and run one kernel. */
struct KernelInfo
{
    std::string name;
    Dim3 grid{1, 1, 1};
    Dim3 cta{32, 1, 1};
    std::uint32_t regsPerThread = 16;
    std::uint32_t smemBytesPerCta = 0;
    WarpProgram program;
    WorkloadType typeClass = WorkloadType::Unknown;

    /** Linearized CTA count of the grid. */
    std::uint32_t gridCtas() const
    {
        return static_cast<std::uint32_t>(grid.total());
    }

    /** Threads per CTA. */
    std::uint32_t ctaThreads() const
    {
        return static_cast<std::uint32_t>(cta.total());
    }

    /** Warps per CTA (threads rounded up to warp granularity). */
    std::uint32_t warpsPerCta() const
    {
        return (ctaThreads() + kWarpSize - 1) / kWarpSize;
    }

    /** Geometry handle for the address generators. */
    KernelGeom geom() const { return {ctaThreads(), gridCtas()}; }

    /** Total dynamic instructions the whole grid executes. */
    std::uint64_t totalDynamicInstrs() const;

    /** Fatal() on malformed kernels. */
    void validate() const;

    /** Member-wise equality, the program included. */
    bool operator==(const KernelInfo&) const = default;
};

} // namespace bsched

#endif // BSCHED_KERNEL_KERNEL_INFO_HH
