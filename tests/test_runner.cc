/**
 * @file
 * Tests for the experiment harness: runs, sweeps and oracle selection.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"

namespace bsched {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = makeConfig(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    c.numCores = 2;
    c.numMemPartitions = 2;
    return c;
}

KernelInfo
kernel()
{
    KernelInfo k;
    k.name = "k";
    k.grid = {12, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(6).load(i).alu(3).endLoop();
    k.program = b.build();
    return k;
}

TEST(Runner, RunKernelPopulatesResult)
{
    const RunResult r = runKernel(cfg(), kernel());
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.instrs, kernel().totalDynamicInstrs());
    EXPECT_NEAR(r.ipc,
                static_cast<double>(r.instrs) /
                    static_cast<double>(r.cycles),
                1e-9);
    EXPECT_GT(r.stats.size(), 0u);
}

TEST(Runner, MissRateHelpersInRange)
{
    const RunResult r = runKernel(cfg(), kernel());
    EXPECT_GE(r.l1MissRate(), 0.0);
    EXPECT_LE(r.l1MissRate(), 1.0);
    EXPECT_GE(r.l2MissRate(), 0.0);
    EXPECT_LE(r.l2MissRate(), 1.0);
    EXPECT_GE(r.dramRowHitRate(), 0.0);
    EXPECT_LE(r.dramRowHitRate(), 1.0);
}

TEST(Runner, ZeroAccessKernelHasWellDefinedMissRates)
{
    // A pure-ALU kernel never touches the memory system; the derived
    // rates must read 0, not NaN or a fatal division.
    KernelInfo k;
    k.name = "alu_only";
    k.grid = {4, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(4).alu(5).endLoop();
    k.program = b.build();

    const RunResult r = runKernel(cfg(), k);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_DOUBLE_EQ(r.stats.sumBySuffix(".l1d.access"), 0.0);
    EXPECT_DOUBLE_EQ(r.l1MissRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.l2MissRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.dramRowHitRate(), 0.0);
}

TEST(Runner, SweepReturnsOneResultPerLimit)
{
    const OracleResult oracle = oracleStaticBest(cfg(), {kernel()})[0];
    EXPECT_EQ(oracle.maxLimit, maxCtasPerCore(cfg(), kernel()));
    ASSERT_EQ(oracle.byLimit.size(), oracle.maxLimit);
    for (const RunResult& r : oracle.byLimit)
        EXPECT_EQ(r.instrs, kernel().totalDynamicInstrs());
}

TEST(Runner, OracleSelectsBestIpc)
{
    const OracleResult oracle = oracleStaticBest(cfg(), {kernel()})[0];
    EXPECT_GE(oracle.bestLimit, 1u);
    EXPECT_LE(oracle.bestLimit, oracle.maxLimit);
    for (std::uint32_t n = 1; n <= oracle.maxLimit; ++n) {
        EXPECT_LE(oracle.byLimit[n - 1].ipc,
                  oracle.byLimit[oracle.bestLimit - 1].ipc + 1e-12);
    }
}

TEST(Runner, RunWorkloadByName)
{
    // Use the real machine (workloads are sized for it) but just check
    // plumbing with the smallest workload.
    GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                  CtaSchedKind::RoundRobin);
    const RunResult r = runWorkload(config, "spmv");
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Runner, MakeConfigSetsPolicies)
{
    const GpuConfig c = makeConfig(WarpSchedKind::BAWS,
                                   CtaSchedKind::LazyBlock);
    EXPECT_EQ(c.warpSched, WarpSchedKind::BAWS);
    EXPECT_EQ(c.ctaSched, CtaSchedKind::LazyBlock);
}

} // namespace
} // namespace bsched
