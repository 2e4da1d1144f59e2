/**
 * @file
 * Unit tests for the DRAM channel model: row-buffer behaviour, FR-FCFS
 * scheduling, bus serialization and the starvation guard.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/stats.hh"

namespace bsched {
namespace {

DramConfig
cfg()
{
    DramConfig c;
    c.banksPerChannel = 4;
    c.rowBytes = 1024; // 8 lines of 128B per row
    c.rowHitLatency = 10;
    c.rowMissLatency = 50;
    c.dataBusCycles = 4;
    c.queueCapacity = 16;
    return c;
}

/** Line address of partition-local line index i (stride 1). */
Addr
line(std::uint64_t i)
{
    return i * 128;
}

TEST(Dram, ReadCompletesAfterMissLatencyPlusBurst)
{
    DramChannel dram(cfg(), 128, 1, "d");
    dram.push(0, line(0), false);
    dram.tick(0);
    EXPECT_FALSE(dram.responseReady(53));
    EXPECT_TRUE(dram.responseReady(54)); // 50 + 4
    EXPECT_EQ(dram.popResponse(54), line(0));
    EXPECT_EQ(dram.rowMisses(), 1u);
}

TEST(Dram, SecondAccessToOpenRowIsAHit)
{
    DramChannel dram(cfg(), 128, 1, "d");
    dram.push(0, line(0), false);
    dram.tick(0);
    Cycle t = 54;
    while (!dram.responseReady(t))
        ++t;
    dram.popResponse(t);
    dram.push(100, line(1), false); // same row (8 lines/row)
    dram.tick(100);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_TRUE(dram.responseReady(100 + 10 + 4));
}

TEST(Dram, RowHitPreferredOverOlderMiss)
{
    DramChannel dram(cfg(), 128, 1, "d");
    // Open row 0 of bank 0.
    dram.push(0, line(0), false);
    dram.tick(0);
    // Queue: first a row miss (row 1 of bank 1), then a row hit (bank 0).
    dram.push(1, line(8), false);  // bank 1 (next row group)
    dram.push(2, line(1), false);  // bank 0, open row -> hit
    // Wait for bank 0 to free, then tick: hit should win over FCFS order
    // once the miss's bank is busy... serve both and compare counters.
    for (Cycle t = 1; t < 300; ++t)
        dram.tick(t);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_EQ(dram.rowMisses(), 2u);
}

TEST(Dram, BusSerializesBackToBackBursts)
{
    DramChannel dram(cfg(), 128, 1, "d");
    // Two hits to the same open row must be spaced by dataBusCycles.
    dram.push(0, line(0), false);
    dram.tick(0);
    Cycle t = 0;
    while (!dram.responseReady(t))
        dram.tick(++t);
    dram.popResponse(t);

    dram.push(t, line(1), false);
    dram.push(t, line(2), false);
    Cycle first = t;
    while (!dram.responseReady(first))
        dram.tick(first++);
    dram.popResponse(first);
    Cycle second = first;
    while (!dram.responseReady(second))
        dram.tick(second++);
    EXPECT_GE(second - first, cfg().dataBusCycles);
}

TEST(Dram, PushToAnIdleBankWakesAStalledScheduler)
{
    DramChannel dram(cfg(), 128, 1, "d");
    dram.push(0, line(0), false); // bank 0
    EXPECT_TRUE(dram.tick(0));
    // The only queued request waits on busy bank 0: the scan finds no
    // free bank, so the scheduler sleeps until bank 0 frees.
    dram.push(1, line(1), false);
    EXPECT_FALSE(dram.tick(1));
    // A request to idle bank 1 is served on the very next tick.
    dram.push(2, line(8), false);
    EXPECT_TRUE(dram.tick(2));
    EXPECT_EQ(dram.rowMisses(), 2u);
    EXPECT_EQ(dram.bankStats(1).rowMisses, 1u);
}

TEST(Dram, WritesProduceNoResponse)
{
    DramChannel dram(cfg(), 128, 1, "d");
    dram.push(0, line(0), true);
    for (Cycle t = 0; t < 200; ++t)
        dram.tick(t);
    EXPECT_FALSE(dram.responseReady(200));
    EXPECT_EQ(dram.writes(), 1u);
    EXPECT_TRUE(dram.idle());
}

TEST(Dram, StarvationGuardBoundsWaiting)
{
    DramConfig c = cfg();
    c.maxStarveCycles = 100;
    DramChannel dram(c, 128, 1, "d");
    // Victim: a row-miss to bank 0 row 1.
    dram.push(0, line(8 * 4), false); // local line 32: bank 0, row 1
    // Open bank 0 row 0 and keep streaming hits to it.
    Cycle t = 0;
    std::uint64_t next_hit = 0;
    int served = 0;
    while (t < 2000) {
        if (dram.canAccept() && next_hit < 8)
            dram.push(t, line(next_hit++), false);
        dram.tick(t);
        while (dram.responseReady(t)) {
            dram.popResponse(t);
            ++served;
        }
        ++t;
    }
    // The victim must have been served despite the hit stream.
    EXPECT_TRUE(dram.idle());
    EXPECT_EQ(served, 9);
}

TEST(Dram, BankAndRowDecompositionWithPartitionStride)
{
    DramChannel dram(cfg(), 128, 6, "d");
    // Global lines 0,6,12,... belong to this partition; local lines
    // compact by dividing by 6.
    EXPECT_EQ(dram.bankOf(0), 0u);
    EXPECT_EQ(dram.rowOf(0), 0u);
    // Local line 8 (global line 48) -> row group 1 -> bank 1.
    EXPECT_EQ(dram.bankOf(48 * 128), 1u);
    // Local line 32 -> bank 0, row 1.
    EXPECT_EQ(dram.bankOf(32 * 6 * 128 / 6), dram.bankOf(line(32 * 6)));
}

TEST(Dram, PerBankStatsSumToChannelTotalsAndExport)
{
    DramChannel dram(cfg(), 128, 1, "d");
    Cycle t = 0;
    const auto access = [&](std::uint64_t i) {
        dram.push(t, line(i), false);
        dram.tick(t);
        while (!dram.responseReady(t))
            ++t;
        EXPECT_EQ(dram.popResponse(t), line(i));
        ++t;
    };
    // cfg(): 8 lines/row, 4 banks -> bank = (i/8) % 4, row = i/32.
    access(0);  // bank0 row0: miss, bank idle -> no conflict
    access(1);  // bank0 row0: hit
    access(32); // bank0 row1: miss closing open row0 -> conflict
    access(8);  // bank1 row0: miss, bank idle -> no conflict

    EXPECT_EQ(dram.numBanks(), 4u);
    ASSERT_LT(2u, dram.numBanks());
    EXPECT_EQ(dram.bankStats(0).rowHits, 1u);
    EXPECT_EQ(dram.bankStats(0).rowMisses, 2u);
    EXPECT_EQ(dram.bankStats(0).conflicts, 1u);
    EXPECT_EQ(dram.bankStats(1).rowMisses, 1u);
    EXPECT_EQ(dram.bankStats(1).conflicts, 0u);

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t conflicts = 0;
    for (std::uint32_t b = 0; b < dram.numBanks(); ++b) {
        hits += dram.bankStats(b).rowHits;
        misses += dram.bankStats(b).rowMisses;
        conflicts += dram.bankStats(b).conflicts;
    }
    EXPECT_EQ(hits, dram.rowHits());
    EXPECT_EQ(misses, dram.rowMisses());
    EXPECT_EQ(conflicts, dram.rowConflicts());

    StatSet stats;
    dram.addStats(stats, "dram");
    EXPECT_EQ(stats.get("dram.row_conflict"), 1.0);
    EXPECT_EQ(stats.get("dram.bank0.row_hit"), 1.0);
    EXPECT_EQ(stats.get("dram.bank0.row_miss"), 2.0);
    EXPECT_EQ(stats.get("dram.bank0.row_conflict"), 1.0);
    EXPECT_EQ(stats.get("dram.bank3.row_miss"), 0.0);
}

TEST(Dram, RowConflictNeedsAnOpenRow)
{
    // A conflict is a row *switch*: the first miss into an idle bank
    // opens a row without closing one and must not count.
    DramChannel dram(cfg(), 128, 1, "d");
    dram.push(0, line(0), false);
    dram.tick(0);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowConflicts(), 0u);
}

TEST(Dram, PushIntoFullQueueDies)
{
    DramConfig c = cfg();
    c.queueCapacity = 1;
    DramChannel dram(c, 128, 1, "d");
    dram.push(0, line(0), false);
    EXPECT_FALSE(dram.canAccept());
    EXPECT_DEATH(dram.push(0, line(1), false), "full queue");
}

} // namespace
} // namespace bsched
