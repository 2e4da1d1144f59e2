/**
 * @file
 * Property-based tests: invariants that must hold across randomized
 * kernels and the whole policy cross-product, exercised with
 * parameterized gtest sweeps.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "random_kernel.hh"

namespace bsched {
namespace {

// --- Property 1: instruction conservation across all policies ----------

using PolicyParam = std::tuple<WarpSchedKind, CtaSchedKind>;

class PolicyCross : public ::testing::TestWithParam<PolicyParam>
{};

TEST_P(PolicyCross, EveryDynamicInstructionIssuesExactlyOnce)
{
    const auto [warp, cta] = GetParam();
    const GpuConfig config = smallMachine(warp, cta);
    for (std::uint64_t seed : {1ull, 7ull}) {
        const KernelInfo k = randomKernel(seed);
        Gpu gpu(config);
        gpu.launchKernel(k);
        gpu.run();
        EXPECT_EQ(gpu.totalInstrsIssued(), k.totalDynamicInstrs())
            << "seed " << seed;
    }
}

TEST_P(PolicyCross, AllCtasCompleteExactlyOnce)
{
    const auto [warp, cta] = GetParam();
    const GpuConfig config = smallMachine(warp, cta);
    const KernelInfo k = randomKernel(3);
    Gpu gpu(config);
    const int id = gpu.launchKernel(k);
    gpu.run();
    EXPECT_EQ(gpu.kernel(id).ctasDone, k.gridCtas());
    const StatSet stats = gpu.stats();
    EXPECT_DOUBLE_EQ(stats.sumBySuffix(".ctas_launched"),
                     static_cast<double>(k.gridCtas()));
    EXPECT_DOUBLE_EQ(stats.sumBySuffix(".ctas_done"),
                     static_cast<double>(k.gridCtas()));
}

TEST_P(PolicyCross, DeterministicCycleCount)
{
    const auto [warp, cta] = GetParam();
    const GpuConfig config = smallMachine(warp, cta);
    const KernelInfo k = randomKernel(11);
    Gpu a(config);
    a.launchKernel(k);
    a.run();
    Gpu b(config);
    b.launchKernel(k);
    b.run();
    EXPECT_EQ(a.cycle(), b.cycle());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyCross,
    ::testing::Combine(::testing::Values(WarpSchedKind::LRR,
                                         WarpSchedKind::GTO,
                                         WarpSchedKind::BAWS),
                       ::testing::Values(CtaSchedKind::RoundRobin,
                                         CtaSchedKind::Lazy,
                                         CtaSchedKind::Block,
                                         CtaSchedKind::LazyBlock)),
    [](const ::testing::TestParamInfo<PolicyParam>& info) {
        std::string name =
            std::string(toString(std::get<0>(info.param))) + "_" +
            toString(std::get<1>(info.param));
        for (char& ch : name) {
            if (ch == '+')
                ch = 'x';
        }
        return name;
    });

// --- Property 2: cache hierarchy conservation over random kernels -------

class RandomKernelSeeds : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomKernelSeeds, MemoryHierarchyConservation)
{
    const GpuConfig config =
        smallMachine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    const KernelInfo k = randomKernel(GetParam());
    Gpu gpu(config);
    gpu.launchKernel(k);
    gpu.run();
    const StatSet stats = gpu.stats();
    // L1 hits + misses == L1 accesses.
    EXPECT_DOUBLE_EQ(stats.sumBySuffix(".l1d.access"),
                     stats.sumBySuffix(".l1d.hit") +
                         stats.sumBySuffix(".l1d.miss"));
    // Every partition read request either hits L2 or allocates an MSHR
    // fetch; DRAM reads == L2 primary misses (read + write-allocate).
    EXPECT_DOUBLE_EQ(stats.sumBySuffix(".dram.read"),
                     stats.sumBySuffix(".l2mshr.alloc"));
    // Interconnect conservation: requests sent equal requests received
    // at partitions.
    EXPECT_DOUBLE_EQ(stats.get("icnt.requests"),
                     stats.sumBySuffix(".req_read") +
                         stats.sumBySuffix(".req_write"));
    // Row hits + row misses == DRAM reads + writes.
    EXPECT_DOUBLE_EQ(stats.sumBySuffix(".dram.row_hit") +
                         stats.sumBySuffix(".dram.row_miss"),
                     stats.sumBySuffix(".dram.read") +
                         stats.sumBySuffix(".dram.write"));
}

TEST_P(RandomKernelSeeds, IpcWithinMachineBounds)
{
    const GpuConfig config =
        smallMachine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    const KernelInfo k = randomKernel(GetParam());
    const RunResult r = runKernel(config, k);
    EXPECT_GT(r.ipc, 0.0);
    // Peak: numCores x numSchedulersPerCore instructions per cycle.
    EXPECT_LE(r.ipc, config.numCores * config.numSchedulersPerCore + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelSeeds,
                         ::testing::Range<std::uint64_t>(100, 112));

// --- Property 3: static CTA limits bound residency ----------------------

class CtaLimitSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CtaLimitSweep, ResidencyNeverExceedsLimit)
{
    GpuConfig config =
        smallMachine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    config.staticCtaLimit = GetParam();
    const KernelInfo k = randomKernel(42);
    Gpu gpu(config);
    gpu.launchKernel(k);
    std::uint32_t max_seen = 0;
    while (gpu.stepCycle()) {
        for (const auto& core : gpu.cores())
            max_seen = std::max(max_seen, core->residentCtas());
    }
    EXPECT_LE(max_seen, GetParam());
    EXPECT_GE(max_seen, 1u);
}

INSTANTIATE_TEST_SUITE_P(Limits, CtaLimitSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

// --- Property 4: shared-memory conflict factor bounds -------------------

class BankStrideSweep : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(BankStrideSweep, ConflictFactorDividesEvenly)
{
    MemPattern p;
    p.kind = AccessKind::SharedBank;
    p.space = MemSpace::Shared;
    p.bankStride = GetParam();
    const std::uint32_t f = sharedConflictFactor(p, kWarpSize);
    EXPECT_GE(f, 1u);
    EXPECT_LE(f, 32u);
    // For power-of-two strides the conflict degree is gcd-driven:
    // factor = min(stride, 32) for pow2 strides.
    const std::uint32_t stride = GetParam();
    if ((stride & (stride - 1)) == 0) {
        EXPECT_EQ(f, std::min(stride, 32u));
    }
}

INSTANTIATE_TEST_SUITE_P(Strides, BankStrideSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u, 16u,
                                           17u, 32u, 33u, 64u));

} // namespace
} // namespace bsched
