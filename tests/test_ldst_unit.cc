/**
 * @file
 * Unit tests for the LD/ST unit: L1 hit/miss paths, MSHR merging,
 * store write-through, backpressure and completion reporting.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/ldst_unit.hh"

namespace bsched {
namespace {

/** The unit's completions, cleared as the core clears them. */
std::vector<LoadCompletion>
drain(LdstUnit& unit)
{
    const std::span<const LoadCompletion> done = unit.completions();
    std::vector<LoadCompletion> out(done.begin(), done.end());
    unit.clearCompletions();
    return out;
}

GpuConfig
cfg()
{
    GpuConfig c = GpuConfig::gtx480();
    c.l1d.hitLatency = 2;
    return c;
}

TEST(LdstUnit, LoadMissSendsRequestAndCompletesOnFill)
{
    LdstUnit unit(cfg(), 3);
    Cycle t = 0;
    unit.pushBatch(t, 7, 5, false, {0x1000});
    unit.tick(t);
    ASSERT_TRUE(unit.hasOutgoing());
    const MemRequest req = unit.popOutgoing();
    EXPECT_EQ(req.lineAddr, 0x1000u);
    EXPECT_FALSE(req.write);
    EXPECT_EQ(req.coreId, 3);

    unit.onFill(10, 0x1000);
    const auto done = drain(unit);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].warpId, 7);
    EXPECT_EQ(done[0].reg, 5);
    EXPECT_TRUE(unit.drained());
}

TEST(LdstUnit, LoadHitCompletesAfterHitLatency)
{
    LdstUnit unit(cfg(), 0);
    Cycle t = 0;
    // Warm the line.
    unit.pushBatch(t, 1, 4, false, {0x2000});
    unit.tick(t);
    unit.popOutgoing();
    unit.onFill(1, 0x2000);
    drain(unit);

    t = 5;
    unit.pushBatch(t, 2, 6, false, {0x2000});
    unit.tick(t); // access at t=5, hit returns at t=7
    ++t;
    EXPECT_TRUE(drain(unit).empty());
    unit.tick(t); // t=6: not yet
    ++t;
    unit.tick(t); // t=7: hit latency elapsed
    const auto done = drain(unit);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].warpId, 2);
    EXPECT_FALSE(unit.hasOutgoing()); // no memory traffic on a hit
}

TEST(LdstUnit, SecondaryMissMergesWithoutSecondRequest)
{
    LdstUnit unit(cfg(), 0);
    Cycle t = 0;
    unit.pushBatch(t, 1, 4, false, {0x3000});
    unit.tick(t++);
    unit.pushBatch(t, 2, 5, false, {0x3000});
    unit.tick(t++);
    // Only one outgoing request for the shared line.
    EXPECT_TRUE(unit.hasOutgoing());
    unit.popOutgoing();
    EXPECT_FALSE(unit.hasOutgoing());
    unit.onFill(t, 0x3000);
    const auto done = drain(unit);
    EXPECT_EQ(done.size(), 2u);
}

TEST(LdstUnit, MultiLineBatchProcessesOneLinePerCycle)
{
    LdstUnit unit(cfg(), 0);
    Cycle t = 0;
    unit.pushBatch(t, 1, 4, false, {0x1000, 0x2000, 0x3000});
    unit.tick(t++);
    unit.tick(t++);
    unit.tick(t++);
    int sent = 0;
    while (unit.hasOutgoing()) {
        unit.popOutgoing();
        ++sent;
    }
    EXPECT_EQ(sent, 3);
    // Completion only after all three fills.
    unit.onFill(t, 0x1000);
    unit.onFill(t, 0x2000);
    EXPECT_TRUE(drain(unit).empty());
    unit.onFill(t, 0x3000);
    EXPECT_EQ(drain(unit).size(), 1u);
}

TEST(LdstUnit, StoreIsWriteThroughFireAndForget)
{
    LdstUnit unit(cfg(), 0);
    Cycle t = 0;
    unit.pushBatch(t, 1, kNoReg, true, {0x4000});
    unit.tick(t);
    ASSERT_TRUE(unit.hasOutgoing());
    const MemRequest req = unit.popOutgoing();
    EXPECT_TRUE(req.write);
    // No load completion for stores; unit drains immediately.
    EXPECT_TRUE(drain(unit).empty());
    EXPECT_TRUE(unit.drained());
}

TEST(LdstUnit, StoreDoesNotAllocateInL1)
{
    LdstUnit unit(cfg(), 0);
    Cycle t = 0;
    unit.pushBatch(t, 1, kNoReg, true, {0x5000});
    unit.tick(t);
    unit.popOutgoing();
    EXPECT_FALSE(unit.l1().probe(0x5000));
}

TEST(LdstUnit, BatchQueueBackpressure)
{
    GpuConfig c = cfg();
    c.ldstQueueDepth = 1;
    LdstUnit unit(c, 0);
    EXPECT_TRUE(unit.canAcceptBatch());
    unit.pushBatch(0, 1, 4, false, {0x1000, 0x2000});
    EXPECT_FALSE(unit.canAcceptBatch());
    EXPECT_DEATH(unit.pushBatch(0, 2, 5, false, {0x3000}),
                 "batch queue overflow");
}

TEST(LdstUnit, CanAdmitReflectsMshrOccupancy)
{
    GpuConfig c = cfg();
    c.l1d.mshrEntries = 2;
    LdstUnit unit(c, 0);
    Cycle t = 0;
    unit.pushBatch(t, 1, 4, false, {0x1000});
    unit.tick(t++);
    unit.pushBatch(t, 2, 5, false, {0x2000});
    unit.tick(t++);
    // Two distinct outstanding lines: MSHR file full.
    EXPECT_FALSE(unit.canAdmit(false));
    EXPECT_TRUE(unit.canAdmit(true)); // stores need no MSHR
    unit.onFill(t, 0x1000);
    EXPECT_TRUE(unit.canAdmit(false));
}

TEST(LdstUnit, OutgoingQueueFullBlocksAdmission)
{
    GpuConfig c = cfg();
    c.coreMemQueue = 1;
    LdstUnit unit(c, 0);
    Cycle t = 0;
    unit.pushBatch(t, 1, 4, false, {0x1000});
    unit.tick(t++); // occupies the single outgoing slot
    EXPECT_FALSE(unit.canAdmit(false));
    EXPECT_FALSE(unit.canAdmit(true));
    unit.popOutgoing();
    EXPECT_TRUE(unit.canAdmit(false));
}

TEST(LdstUnit, HeadOfLineStallRetries)
{
    GpuConfig c = cfg();
    c.coreMemQueue = 1;
    LdstUnit unit(c, 0);
    Cycle t = 0;
    unit.pushBatch(t, 1, 4, false, {0x1000, 0x2000});
    unit.tick(t++); // line 1 sent; queue now full
    unit.tick(t++); // line 2 blocked
    EXPECT_GT(unit.stallCycles(), 0u);
    unit.popOutgoing();
    unit.tick(t++); // line 2 proceeds
    EXPECT_TRUE(unit.hasOutgoing());
}

TEST(LdstUnit, EmptyBatchDies)
{
    LdstUnit unit(cfg(), 0);
    EXPECT_DEATH(unit.pushBatch(0, 1, 4, false, {}), "empty access batch");
}

TEST(LdstUnit, FillForUnknownLineDies)
{
    LdstUnit unit(cfg(), 0);
    EXPECT_DEATH(unit.onFill(0, 0x9000), "unknown line");
}

} // namespace
} // namespace bsched
