/**
 * @file
 * Unit tests for the MSHR file.
 */

#include <gtest/gtest.h>

#include "mem/mshr.hh"

namespace bsched {
namespace {

TEST(Mshr, PrimaryMissAllocatesEntry)
{
    MshrFile mshr(4, 2, "m");
    EXPECT_EQ(mshr.allocate(0x100, 1), MshrOutcome::NewEntry);
    EXPECT_TRUE(mshr.has(0x100));
    EXPECT_EQ(mshr.entriesInUse(), 1u);
}

TEST(Mshr, SecondaryMissMerges)
{
    MshrFile mshr(4, 2, "m");
    mshr.allocate(0x100, 1);
    EXPECT_EQ(mshr.allocate(0x100, 2), MshrOutcome::Merged);
    EXPECT_EQ(mshr.entriesInUse(), 1u);
}

TEST(Mshr, MergeCapacityEnforced)
{
    MshrFile mshr(4, 2, "m");
    mshr.allocate(0x100, 1);
    mshr.allocate(0x100, 2);
    EXPECT_EQ(mshr.allocate(0x100, 3), MshrOutcome::FullEntry);
}

TEST(Mshr, FileCapacityEnforced)
{
    MshrFile mshr(2, 8, "m");
    mshr.allocate(0x100, 1);
    mshr.allocate(0x200, 2);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.allocate(0x300, 3), MshrOutcome::FullFile);
    // But merging into existing entries still works when full.
    EXPECT_EQ(mshr.allocate(0x100, 4), MshrOutcome::Merged);
}

TEST(Mshr, CompleteReturnsAllWaitersInOrder)
{
    MshrFile mshr(4, 4, "m");
    mshr.allocate(0x100, 7);
    mshr.allocate(0x100, 8);
    mshr.allocate(0x100, 9);
    const auto waiters = mshr.complete(0x100);
    ASSERT_EQ(waiters.size(), 3u);
    EXPECT_EQ(waiters[0], 7u);
    EXPECT_EQ(waiters[1], 8u);
    EXPECT_EQ(waiters[2], 9u);
    EXPECT_FALSE(mshr.has(0x100));
    EXPECT_TRUE(mshr.empty());
}

TEST(Mshr, FreedEntryIsReusedAndMovedEntryKeepsItsWaiters)
{
    MshrFile mshr(4, 4, "m");
    for (Addr line : {0x100, 0x200, 0x300, 0x400})
        ASSERT_EQ(mshr.allocate(line, line + 1), MshrOutcome::NewEntry);
    ASSERT_EQ(mshr.allocate(0x400, 0x402), MshrOutcome::Merged);
    ASSERT_TRUE(mshr.full());

    // Completing a middle entry moves the last one (0x400) into it.
    const auto middle = mshr.complete(0x200);
    ASSERT_EQ(middle.size(), 1u);
    EXPECT_EQ(middle[0], 0x201u);
    EXPECT_FALSE(mshr.has(0x200));
    EXPECT_EQ(mshr.entriesInUse(), 3u);

    // The moved entry still merges, and the freed entry is reusable.
    EXPECT_EQ(mshr.allocate(0x400, 0x403), MshrOutcome::Merged);
    EXPECT_EQ(mshr.allocate(0x500, 0x501), MshrOutcome::NewEntry);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.allocate(0x400, 0x404), MshrOutcome::Merged);
    EXPECT_EQ(mshr.allocate(0x400, 0x405), MshrOutcome::FullEntry);

    const auto moved = mshr.complete(0x400);
    ASSERT_EQ(moved.size(), 4u);
    EXPECT_EQ(moved[0], 0x401u);
    EXPECT_EQ(moved[1], 0x402u);
    EXPECT_EQ(moved[2], 0x403u);
    EXPECT_EQ(moved[3], 0x404u);
    for (Addr line : {0x100, 0x300, 0x500}) {
        const auto waiters = mshr.complete(line);
        ASSERT_EQ(waiters.size(), 1u);
        EXPECT_EQ(waiters[0], line + 1);
    }
    EXPECT_TRUE(mshr.empty());
}

TEST(Mshr, CompleteUnknownLineDies)
{
    MshrFile mshr(4, 4, "m");
    EXPECT_DEATH(mshr.complete(0xdead), "unknown line");
}

TEST(Mshr, StatsCountStalls)
{
    MshrFile mshr(1, 1, "m");
    mshr.allocate(0x100, 1);
    mshr.allocate(0x100, 2); // FullEntry
    mshr.allocate(0x200, 3); // FullFile
    StatSet stats;
    mshr.addStats(stats, "m");
    EXPECT_DOUBLE_EQ(stats.get("m.alloc"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("m.stall_entry"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("m.stall_file"), 1.0);
}

TEST(Mshr, ZeroCapacityDies)
{
    EXPECT_DEATH(MshrFile(0, 1, "m"), "zero capacity");
}

} // namespace
} // namespace bsched
