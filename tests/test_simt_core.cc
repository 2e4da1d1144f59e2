/**
 * @file
 * Unit tests for the SIMT core: CTA launch/retire, issue, barriers,
 * per-CTA issue accounting, and the memory interface.
 */

#include <gtest/gtest.h>

#include "core/simt_core.hh"
#include "kernel/program_builder.hh"

namespace bsched {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::gtx480();
    c.aluLatency = 2;
    return c;
}

KernelInfo
aluKernel(std::uint32_t threads = 64, std::uint32_t trips = 4)
{
    KernelInfo k;
    k.name = "alu";
    k.grid = {8, 1, 1};
    k.cta = {threads, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(trips).alu(2, false).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

KernelInfo
loadKernel()
{
    KernelInfo k;
    k.name = "ld";
    k.grid = {4, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern p;
    p.kind = AccessKind::Coalesced;
    p.base = 0x100000;
    const auto id = b.pattern(p);
    b.load(id).alu(1);
    k.program = b.build();
    k.validate();
    return k;
}

KernelInfo
barrierKernel()
{
    KernelInfo k;
    k.name = "bar";
    k.grid = {2, 1, 1};
    k.cta = {64, 1, 1}; // 2 warps
    k.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(3).alu(1, false).barrier().alu(1, false).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

/** Drive the core until it idles (panics via maxCycles guard in tests). */
Cycle
runToIdle(SimtCore& core, Cycle start = 0, Cycle budget = 100000)
{
    Cycle t = start;
    while (!core.idle() && t < start + budget) {
        core.tick(t);
        ++t;
    }
    return t;
}

TEST(SimtCore, AluKernelCtaRunsToCompletion)
{
    SimtCore core(cfg(), 0);
    const KernelInfo k = aluKernel();
    EXPECT_TRUE(core.canAccept(k));
    core.launchCta(1, k, 0, 0, 0);
    EXPECT_EQ(core.residentCtas(), 1u);
    runToIdle(core, 1);
    EXPECT_TRUE(core.idle());
    const auto done = core.drainCompletedCtas();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].ctaId, 0u);
    EXPECT_EQ(done[0].kernelId, 0);
    // 2 warps x 4 trips x 2 instrs.
    EXPECT_EQ(done[0].issuedInstrs, 16u);
    EXPECT_EQ(core.instrsIssued(), 16u);
}

TEST(SimtCore, DualIssueUsesBothSchedulers)
{
    SimtCore core(cfg(), 0);
    // Plenty of independent warps: expect ~2 IPC.
    const KernelInfo k = aluKernel(256, 50);
    core.launchCta(0, k, 0, 0, 0);
    const Cycle end = runToIdle(core);
    const double ipc =
        static_cast<double>(core.instrsIssued()) / static_cast<double>(end);
    EXPECT_GT(ipc, 1.5);
}

TEST(SimtCore, ResourceAccountingAcrossLaunchAndRetire)
{
    const GpuConfig config = cfg();
    SimtCore core(config, 0);
    const KernelInfo k = aluKernel(256);
    const std::uint32_t n_max = maxCtasPerCore(config, k);
    std::uint32_t launched = 0;
    while (core.canAccept(k)) {
        core.launchCta(0, k, 0, launched, launched);
        ++launched;
    }
    EXPECT_EQ(launched, n_max);
    runToIdle(core, 1);
    EXPECT_EQ(core.residentCtas(), 0u);
    EXPECT_TRUE(core.canAccept(k));
    EXPECT_EQ(core.resources().freeThreads(), config.maxThreadsPerCore);
}

TEST(SimtCore, LaunchWithoutCapacityDies)
{
    SimtCore core(cfg(), 0);
    const KernelInfo k = aluKernel(256);
    while (core.canAccept(k))
        core.launchCta(0, k, 0, 0, 0);
    EXPECT_DEATH(core.launchCta(0, k, 0, 99, 99), "without capacity");
}

TEST(SimtCore, LoadKernelGeneratesMemoryTraffic)
{
    SimtCore core(cfg(), 2);
    const KernelInfo k = loadKernel();
    core.launchCta(0, k, 0, 0, 0);
    Cycle t = 0;
    while (!core.hasOutgoing() && t < 100)
        core.tick(t++);
    ASSERT_TRUE(core.hasOutgoing());
    const MemRequest req = core.popOutgoing();
    EXPECT_EQ(req.coreId, 2);
    EXPECT_FALSE(req.write);
    // The dependent ALU cannot issue until the fill arrives.
    const std::uint64_t before = core.instrsIssued();
    for (int i = 0; i < 50; ++i)
        core.tick(t++);
    EXPECT_EQ(core.instrsIssued(), before);
    core.deliverResponse(t, {req.lineAddr, 2});
    for (int i = 0; i < 10; ++i)
        core.tick(t++);
    EXPECT_GT(core.instrsIssued(), before);
}

TEST(SimtCore, FillWakesASleepingCoreOnItsOwnCycle)
{
    SimtCore core(cfg(), 0);
    const KernelInfo k = loadKernel();
    core.launchCta(0, k, 0, 0, 0);
    Cycle t = 0;
    while (!core.hasOutgoing() && t < 100)
        core.tick(t++);
    ASSERT_TRUE(core.hasOutgoing());
    const MemRequest req = core.popOutgoing();
    // Asleep on the outstanding load: the dependent ALU waits.
    const std::uint64_t before = core.instrsIssued();
    for (int i = 0; i < 50; ++i)
        core.tick(t++);
    EXPECT_EQ(core.instrsIssued(), before);
    // The fill's cycle releases the register and issues the ALU.
    core.deliverResponse(t, {req.lineAddr, 0});
    core.tick(t);
    EXPECT_EQ(core.instrsIssued(), before + 1);
}

TEST(SimtCore, PoppedStoreTurnsMemStallsIntoIdleStalls)
{
    GpuConfig c = cfg();
    c.sfuLatency = 200;
    SimtCore core(c, 0);
    KernelInfo k;
    k.name = "st";
    k.grid = {1, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern p;
    p.kind = AccessKind::Coalesced;
    p.base = 0x100000;
    const auto id = b.pattern(p);
    // The store's request waits in the LD/ST unit while the warp waits
    // ~200 cycles on the SFU result its last ALU reads.
    b.alu(1, false).store(id).sfu(1).alu(1);
    k.program = b.build();
    k.validate();
    core.launchCta(0, k, 0, 0, 0);
    Cycle t = 0;
    while (!core.hasOutgoing() && t < 100)
        core.tick(t++);
    ASSERT_TRUE(core.hasOutgoing());
    for (int i = 0; i < 20; ++i)
        core.tick(t++);
    const std::uint64_t mem = core.memStallCycles();
    const std::uint64_t idle = core.idleStallCycles();
    const std::uint64_t issued = core.instrsIssued();
    EXPECT_GE(mem, 20u);
    EXPECT_TRUE(core.popOutgoing().write);
    for (int i = 0; i < 5; ++i)
        core.tick(t++);
    EXPECT_EQ(core.memStallCycles(), mem);
    EXPECT_EQ(core.idleStallCycles(), idle + 5);
    EXPECT_EQ(core.instrsIssued(), issued);
}

TEST(SimtCore, BarrierSynchronizesWarps)
{
    SimtCore core(cfg(), 0);
    const KernelInfo k = barrierKernel();
    core.launchCta(0, k, 0, 0, 0);
    runToIdle(core, 1);
    EXPECT_TRUE(core.idle());
    const auto done = core.drainCompletedCtas();
    ASSERT_EQ(done.size(), 1u);
    // 2 warps x 3 trips x 3 instrs (alu, bar, alu).
    EXPECT_EQ(done[0].issuedInstrs, 18u);
}

TEST(SimtCore, PerKernelIssueCountsAreSeparate)
{
    SimtCore core(cfg(), 0);
    const KernelInfo a = aluKernel(64, 2);
    const KernelInfo b = aluKernel(64, 8);
    core.launchCta(0, a, 0, 0, 0);
    core.launchCta(0, b, 1, 0, 1);
    runToIdle(core, 1);
    core.drainCompletedCtas();
    EXPECT_EQ(core.instrsIssued(0), 2u * 2 * 2);
    EXPECT_EQ(core.instrsIssued(1), 2u * 8 * 2);
    EXPECT_EQ(core.instrsIssued(), core.instrsIssued(0) +
                                       core.instrsIssued(1));
}

TEST(SimtCore, CtaIssueCountsIncludeCompletedAndResident)
{
    SimtCore core(cfg(), 0);
    const KernelInfo quick = aluKernel(64, 1);
    const KernelInfo slow = aluKernel(64, 200);
    core.launchCta(0, quick, 0, 0, 0);
    core.launchCta(0, slow, 0, 1, 1);
    // Run until the quick CTA is done but the slow one is not, plus a
    // few cycles so the slow CTA (deprioritized by GTO while the quick
    // one ran) makes some progress.
    Cycle t = 1;
    while (core.residentCtas() == 2 && t < 10000)
        core.tick(t++);
    for (int extra = 0; extra < 20; ++extra)
        core.tick(t++);
    const auto counts = core.ctaIssueCounts(0);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0], 4u); // completed quick CTA: 2 warps x 1 x 2
    EXPECT_GT(counts[1], 0u); // resident slow CTA partial progress
}

TEST(SimtCore, KernelFirstLaunchRecorded)
{
    SimtCore core(cfg(), 0);
    const KernelInfo k = aluKernel();
    EXPECT_EQ(core.kernelFirstLaunch(0), kCycleNever);
    core.launchCta(17, k, 0, 0, 0);
    EXPECT_EQ(core.kernelFirstLaunch(0), 17u);
    core.launchCta(30, k, 0, 1, 1);
    EXPECT_EQ(core.kernelFirstLaunch(0), 17u);
}

TEST(SimtCore, StatsExportIncludesIssueBreakdown)
{
    SimtCore core(cfg(), 5);
    const KernelInfo k = barrierKernel();
    core.launchCta(0, k, 0, 0, 0);
    runToIdle(core, 1);
    StatSet stats;
    core.addStats(stats);
    EXPECT_GT(stats.get("core5.issued"), 0.0);
    EXPECT_GT(stats.get("core5.issued_alu"), 0.0);
    EXPECT_GT(stats.get("core5.issued_bar"), 0.0);
    EXPECT_DOUBLE_EQ(stats.get("core5.ctas_done"), 1.0);
}

TEST(SimtCore, SharedMemoryConflictsSerializeIssue)
{
    GpuConfig c = cfg();
    SimtCore core(c, 0);
    KernelInfo k;
    k.name = "smem";
    k.grid = {1, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder pb;
    MemPattern conflict;
    conflict.kind = AccessKind::SharedBank;
    conflict.space = MemSpace::Shared;
    conflict.bankStride = 32; // 32-way conflict
    const auto id = pb.pattern(conflict);
    pb.loop(4).loadShared(id).endLoop();
    k.program = pb.build();
    k.validate();
    core.launchCta(0, k, 0, 0, 0);
    const Cycle conflicted = runToIdle(core, 1);

    SimtCore core2(c, 0);
    KernelInfo k2 = k;
    ProgramBuilder pb2;
    MemPattern clean;
    clean.kind = AccessKind::SharedBank;
    clean.space = MemSpace::Shared;
    clean.bankStride = 1;
    const auto id2 = pb2.pattern(clean);
    pb2.loop(4).loadShared(id2).endLoop();
    k2.program = pb2.build();
    core2.launchCta(0, k2, 0, 0, 0);
    const Cycle fast = runToIdle(core2, 1);
    EXPECT_GT(conflicted, fast + 50);
}

} // namespace
} // namespace bsched
