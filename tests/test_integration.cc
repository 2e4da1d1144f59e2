/**
 * @file
 * End-to-end integration tests reproducing the paper's qualitative
 * claims on small, fast configurations: GTO skew, LCS throttling on a
 * cache-thrashing kernel, BCS locality capture, and mixed-kernel
 * co-execution.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "gpu/gpu.hh"
#include "gpu/multi_kernel.hh"
#include "harness/runner.hh"
#include "kernel/program_builder.hh"

namespace bsched {
namespace {

GpuConfig
machine(WarpSchedKind warp, CtaSchedKind cta)
{
    GpuConfig c = makeConfig(warp, cta);
    c.numCores = 4;
    c.numMemPartitions = 2;
    return c;
}

/** Cache-thrashing tile kernel in the calibrated type-3 regime. */
KernelInfo
tileKernel(std::uint32_t grid = 96)
{
    KernelInfo k;
    k.name = "tile";
    k.grid = {grid, 1, 1};
    k.cta = {256, 1, 1};
    k.regsPerThread = 20;
    ProgramBuilder b;
    MemPattern tile;
    tile.kind = AccessKind::CtaTile;
    tile.base = 0x40000000;
    tile.footprintBytes = 8 * 1024;
    const auto t = b.pattern(tile);
    b.loop(40).load(t).alu(4).load(t).alu(4).endLoop();
    k.program = b.build();
    return k;
}

/** Latency-bound compute kernel (type-2 flavour). */
KernelInfo
computeKernel(std::uint32_t grid = 32)
{
    KernelInfo k;
    k.name = "compute";
    k.grid = {grid, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 32;
    ProgramBuilder b;
    b.loop(60).alu(8).sfu(1).endLoop();
    k.program = b.build();
    return k;
}

/** Halo stencil with 50% row sharing between neighbours. */
KernelInfo
stencilKernel(std::uint32_t grid = 128)
{
    KernelInfo k;
    k.name = "stencil";
    k.grid = {grid, 1, 1};
    k.cta = {256, 1, 1};
    k.regsPerThread = 32;
    ProgramBuilder b;
    MemPattern halo;
    halo.kind = AccessKind::HaloRows;
    halo.base = 0x40000000;
    halo.rowBytes = 1024;
    halo.rowsPerCta = 4;
    halo.haloRows = 2;
    const auto h = b.pattern(halo);
    b.loop(32).load(h).alu(2).load(h).alu(2).endLoop();
    k.program = b.build();
    return k;
}

TEST(Integration, GtoSkewsPerCtaIssueOnThrashingKernel)
{
    // The LCS sensor: under GTO, issue concentrates on older CTAs.
    const GpuConfig config =
        machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    const KernelInfo k = tileKernel();
    Gpu gpu(config);
    gpu.launchKernel(k);
    const SimtCore& core = *gpu.cores().front();
    while (gpu.stepCycle()) {
        const auto counts = core.ctaIssueCounts(0);
        if (counts.size() > core.residentCtas(0))
            break;
    }
    auto counts = core.ctaIssueCounts(0);
    ASSERT_GE(counts.size(), 4u);
    std::sort(counts.rbegin(), counts.rend());
    std::uint64_t total = 0;
    for (auto c : counts)
        total += c;
    // Skewed: the greedy CTA owns well over its equal share.
    EXPECT_GT(static_cast<double>(counts[0]),
              1.5 * static_cast<double>(total) /
                  static_cast<double>(counts.size()));
}

TEST(Integration, StaticCtaSweepShowsPeakedCurve)
{
    // The paper's central observation: max CTAs != max performance.
    const GpuConfig config =
        machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    const OracleResult oracle = oracleStaticBest(config, {tileKernel()})[0];
    EXPECT_LT(oracle.bestLimit, oracle.maxLimit);
    const double best = oracle.byLimit[oracle.bestLimit - 1].ipc;
    const double at_max = oracle.byLimit[oracle.maxLimit - 1].ipc;
    EXPECT_GT(best, 1.05 * at_max);
}

TEST(Integration, LcsBeatsMaxCtaBaselineOnThrashingKernel)
{
    const KernelInfo k = tileKernel();
    const RunResult base =
        runKernel(machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin), k);
    const RunResult lcs =
        runKernel(machine(WarpSchedKind::GTO, CtaSchedKind::Lazy), k);
    EXPECT_GT(lcs.ipc, 1.02 * base.ipc);
}

TEST(Integration, LcsHarmlessOnComputeKernel)
{
    const KernelInfo k = computeKernel();
    const RunResult base =
        runKernel(machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin), k);
    const RunResult lcs =
        runKernel(machine(WarpSchedKind::GTO, CtaSchedKind::Lazy), k);
    EXPECT_GT(lcs.ipc, 0.93 * base.ipc);
}

TEST(Integration, GtoBeatsLrrOnThrashingKernel)
{
    const KernelInfo k = tileKernel();
    const RunResult lrr =
        runKernel(machine(WarpSchedKind::LRR, CtaSchedKind::RoundRobin), k);
    const RunResult gto =
        runKernel(machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin), k);
    EXPECT_GT(gto.ipc, lrr.ipc);
}

TEST(Integration, BcsReducesL1MissesOnStencil)
{
    const KernelInfo k = stencilKernel();
    const RunResult base =
        runKernel(machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin), k);
    const RunResult bcs =
        runKernel(machine(WarpSchedKind::GTO, CtaSchedKind::Block), k);
    EXPECT_LT(bcs.l1MissRate(), base.l1MissRate());
}

TEST(Integration, MixedBeatsSpatialOnComplementaryPair)
{
    // A memory-thrashing kernel paired with a compute kernel: mixing on
    // every core should beat dedicating half the cores to each.
    const GpuConfig config =
        machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    const KernelInfo a = tileKernel(64);
    const KernelInfo b = computeKernel(48);
    const auto spatial = runMultiKernel(config, {&a, &b},
                                        MultiKernelPolicy::Spatial);
    const auto mixed = runMultiKernel(config, {&a, &b},
                                      MultiKernelPolicy::Mixed);
    EXPECT_LT(mixed.totalCycles,
              static_cast<Cycle>(1.05 * spatial.totalCycles));
}

TEST(Integration, WholeGpuDrainsCleanly)
{
    // After run(), no component should hold in-flight state: re-running
    // a second kernel on the same GPU produces identical behaviour to a
    // fresh GPU (warm caches aside, cycle counts must be close).
    const GpuConfig config =
        machine(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    const KernelInfo k = stencilKernel(32);
    Gpu reused(config);
    const int first = reused.launchKernel(k);
    reused.run();
    const Cycle first_cycles = reused.kernelCycles(first);
    const int second = reused.launchKernel(k);
    reused.run();
    const Cycle second_cycles = reused.kernelCycles(second);
    // Warm L2 can only help; the second run must not be slower by much.
    EXPECT_LE(second_cycles,
              static_cast<Cycle>(1.02 * first_cycles));
}

} // namespace
} // namespace bsched
