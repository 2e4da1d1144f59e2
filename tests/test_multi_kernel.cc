/**
 * @file
 * Tests for the multi-kernel execution policies (sequential / spatial /
 * mixed) and the STP/ANTT metrics.
 */

#include <gtest/gtest.h>

#include "gpu/multi_kernel.hh"
#include "kernel/program_builder.hh"

namespace bsched {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::gtx480();
    c.numCores = 4;
    c.numMemPartitions = 2;
    return c;
}

KernelInfo
kernel(const char* name, std::uint32_t trips)
{
    KernelInfo k;
    k.name = name;
    k.grid = {16, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(trips).alu(2, false).endLoop();
    k.program = b.build();
    return k;
}

TEST(MultiKernel, SequentialTotalIsSumOfParts)
{
    const KernelInfo a = kernel("a", 20);
    const KernelInfo b = kernel("b", 40);
    const auto report = runMultiKernel(cfg(), {&a, &b},
                                       MultiKernelPolicy::Sequential);
    ASSERT_EQ(report.sharedCycles.size(), 2u);
    // Back-to-back: total >= each part; parts roughly match isolated.
    EXPECT_GE(report.totalCycles, report.sharedCycles[0]);
    EXPECT_NEAR(static_cast<double>(report.sharedCycles[0]),
                static_cast<double>(report.isolatedCycles[0]),
                0.1 * static_cast<double>(report.isolatedCycles[0]));
}

TEST(MultiKernel, SequentialStpIsNearTwo)
{
    // Each kernel runs alone during its slot: per-kernel slowdown ~1.
    const KernelInfo a = kernel("a", 30);
    const KernelInfo b = kernel("b", 30);
    const auto report = runMultiKernel(cfg(), {&a, &b},
                                       MultiKernelPolicy::Sequential);
    EXPECT_NEAR(report.stp(), 2.0, 0.2);
    EXPECT_NEAR(report.antt(), 1.0, 0.1);
}

TEST(MultiKernel, SpatialSplitsCores)
{
    const KernelInfo a = kernel("a", 30);
    const KernelInfo b = kernel("b", 30);
    const auto report =
        runMultiKernel(cfg(), {&a, &b}, MultiKernelPolicy::Spatial);
    // Each kernel on half the cores: slower than isolated.
    EXPECT_GT(report.sharedCycles[0], report.isolatedCycles[0]);
    EXPECT_GT(report.sharedCycles[1], report.isolatedCycles[1]);
    // But they overlap: total < sum of shared runtimes.
    EXPECT_LT(report.totalCycles,
              report.sharedCycles[0] + report.sharedCycles[1]);
}

TEST(MultiKernel, SpatialHonoursExplicitSplit)
{
    const KernelInfo a = kernel("a", 30);
    const KernelInfo b = kernel("b", 30);
    const auto even =
        runMultiKernel(cfg(), {&a, &b}, MultiKernelPolicy::Spatial, {2});
    const auto skewed =
        runMultiKernel(cfg(), {&a, &b}, MultiKernelPolicy::Spatial, {1});
    // Kernel a with only 1 core is slower than with 2.
    EXPECT_GT(skewed.sharedCycles[0], even.sharedCycles[0]);
}

TEST(MultiKernel, MixedRunsBothKernelsOnEveryCore)
{
    const KernelInfo a = kernel("a", 30);
    const KernelInfo b = kernel("b", 30);
    const auto report =
        runMultiKernel(cfg(), {&a, &b}, MultiKernelPolicy::Mixed);
    EXPECT_EQ(report.sharedCycles.size(), 2u);
    EXPECT_GT(report.totalCycles, 0u);
    // Both kernels finish.
    EXPECT_GT(report.stp(), 0.5);
}

TEST(MultiKernel, FairnessMetricsFromKnownCycles)
{
    MultiKernelReport report;
    report.isolatedCycles = {100, 100};
    report.sharedCycles = {150, 300}; // slowdowns 1.5 and 3.0
    EXPECT_DOUBLE_EQ(report.maxSlowdown(), 3.0);
    // Normalized progress 1/1.5 vs 1/3: min/max = 0.5.
    EXPECT_DOUBLE_EQ(report.fairness(), 0.5);

    report.sharedCycles = {200, 200};
    EXPECT_DOUBLE_EQ(report.maxSlowdown(), 2.0);
    EXPECT_DOUBLE_EQ(report.fairness(), 1.0); // equal slowdown is fair
}

TEST(MultiKernel, SequentialIsFairAndBoundsMaxSlowdown)
{
    const KernelInfo a = kernel("a", 30);
    const KernelInfo b = kernel("b", 30);
    const auto report = runMultiKernel(cfg(), {&a, &b},
                                       MultiKernelPolicy::Sequential);
    // Identical kernels run back-to-back: both slow down alike.
    EXPECT_GT(report.fairness(), 0.8);
    EXPECT_GE(report.maxSlowdown(), report.antt());
}

TEST(MultiKernel, PrecomputedBaselinesMatchSimulated)
{
    const KernelInfo a = kernel("a", 20);
    const KernelInfo b = kernel("b", 40);
    const GpuConfig c = cfg();
    const auto plain =
        runMultiKernel(c, {&a, &b}, MultiKernelPolicy::Spatial);

    // Baselines handed in give the same report as simulated ones, so a
    // sweep can simulate each distinct kernel's baseline once.
    const std::vector<Cycle> isolated = plain.isolatedCycles;
    const auto given = runMultiKernel(c, {&a, &b},
                                      MultiKernelPolicy::Spatial, {},
                                      &isolated);
    EXPECT_EQ(given.isolatedCycles, plain.isolatedCycles);
    EXPECT_EQ(given.sharedCycles, plain.sharedCycles);
    EXPECT_EQ(given.totalCycles, plain.totalCycles);
    EXPECT_EQ(given.stp(), plain.stp());
    EXPECT_EQ(given.antt(), plain.antt());
}

TEST(MultiKernel, ZeroIsolatedCyclesDies)
{
    const KernelInfo a = kernel("a", 20);
    const KernelInfo b = kernel("b", 40);
    const std::vector<Cycle> isolated = {100, 0};
    EXPECT_DEATH(runMultiKernel(cfg(), {&a, &b},
                                MultiKernelPolicy::Sequential, {},
                                &isolated),
                 "zero isolated cycles");
}

TEST(MultiKernel, PolicyNames)
{
    EXPECT_STREQ(toString(MultiKernelPolicy::Sequential), "sequential");
    EXPECT_STREQ(toString(MultiKernelPolicy::Spatial), "spatial");
    EXPECT_STREQ(toString(MultiKernelPolicy::Mixed), "mixed");
}

TEST(MultiKernel, EmptyKernelListDies)
{
    EXPECT_DEATH(
        runMultiKernel(cfg(), {}, MultiKernelPolicy::Sequential),
        "no kernels");
}

TEST(MultiKernel, BadSplitDies)
{
    const KernelInfo a = kernel("a", 10);
    const KernelInfo b = kernel("b", 10);
    EXPECT_DEATH(runMultiKernel(cfg(), {&a, &b},
                                MultiKernelPolicy::Spatial, {1, 2}),
                 "split");
}

} // namespace
} // namespace bsched
