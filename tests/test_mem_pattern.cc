/**
 * @file
 * Unit tests for the address generators and the coalescer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "kernel/mem_pattern.hh"

namespace bsched {
namespace {

const KernelGeom kGeom{256, 120};

TEST(MemPattern, CoalescedLanesAreContiguous)
{
    MemPattern p;
    p.kind = AccessKind::Coalesced;
    p.base = 0x1000;
    const Addr a0 = laneAddress(p, kGeom, 3, 2, 0, 0);
    const Addr a1 = laneAddress(p, kGeom, 3, 2, 1, 0);
    EXPECT_EQ(a1 - a0, 4u);
}

TEST(MemPattern, CoalescedIterationAdvancesByGridSlab)
{
    MemPattern p;
    p.kind = AccessKind::Coalesced;
    const Addr i0 = laneAddress(p, kGeom, 0, 0, 0, 0);
    const Addr i1 = laneAddress(p, kGeom, 0, 0, 0, 1);
    EXPECT_EQ(i1 - i0, 4ull * 256 * 120);
}

TEST(MemPattern, CoalescedWarpAccessTouchesOneLine)
{
    MemPattern p;
    p.kind = AccessKind::Coalesced;
    std::vector<Addr> lines;
    coalesce(p, kGeom, 7, 1, 5, kWarpSize, 128, lines);
    EXPECT_EQ(lines.size(), 1u);
}

TEST(MemPattern, StridedAccessAmplifiesLines)
{
    MemPattern p;
    p.kind = AccessKind::Strided;
    p.strideElems = 8; // 32B between lanes: 4 lanes per 128B line
    std::vector<Addr> lines;
    coalesce(p, kGeom, 0, 0, 0, kWarpSize, 128, lines);
    EXPECT_EQ(lines.size(), 8u);
}

TEST(MemPattern, FullyDivergentStrideTouches32Lines)
{
    MemPattern p;
    p.kind = AccessKind::Strided;
    p.strideElems = 32; // 128B apart: every lane its own line
    std::vector<Addr> lines;
    coalesce(p, kGeom, 0, 0, 0, kWarpSize, 128, lines);
    EXPECT_EQ(lines.size(), 32u);
}

TEST(MemPattern, CtaTileStaysInsideFootprint)
{
    MemPattern p;
    p.kind = AccessKind::CtaTile;
    p.base = 0x100000;
    p.footprintBytes = 8 * 1024;
    for (std::uint64_t iter = 0; iter < 100; ++iter) {
        for (std::uint32_t lane = 0; lane < kWarpSize; ++lane) {
            const Addr a = laneAddress(p, kGeom, 5, 3, lane, iter);
            EXPECT_GE(a, p.base + 5 * p.footprintBytes);
            EXPECT_LT(a, p.base + 6 * p.footprintBytes);
        }
    }
}

TEST(MemPattern, CtaTileRepeatsAfterFullPass)
{
    MemPattern p;
    p.kind = AccessKind::CtaTile;
    p.footprintBytes = 4 * 1024; // 1024 elems; pass = 4 trips at 256 thr
    const Addr first = laneAddress(p, kGeom, 2, 0, 0, 0);
    const Addr again = laneAddress(p, kGeom, 2, 0, 0, 4);
    EXPECT_EQ(first, again);
}

TEST(MemPattern, HaloRowsSharedBetweenNeighbours)
{
    MemPattern p;
    p.kind = AccessKind::HaloRows;
    p.rowBytes = 1024;
    p.rowsPerCta = 4;
    p.haloRows = 1;
    // Collect rows each CTA touches over one span.
    auto rows_of = [&](std::uint32_t cta) {
        std::set<Addr> rows;
        const std::uint64_t span = p.rowsPerCta + 2 * p.haloRows;
        for (std::uint64_t iter = 0; iter < span; ++iter)
            rows.insert(laneAddress(p, kGeom, cta, 0, 0, iter) / p.rowBytes);
        return rows;
    };
    const auto r1 = rows_of(1);
    const auto r2 = rows_of(2);
    std::set<Addr> shared;
    for (Addr r : r1) {
        if (r2.count(r))
            shared.insert(r);
    }
    EXPECT_EQ(shared.size(), 2u * p.haloRows);
}

TEST(MemPattern, HaloRowsClampAtZero)
{
    MemPattern p;
    p.kind = AccessKind::HaloRows;
    p.rowBytes = 1024;
    p.rowsPerCta = 4;
    p.haloRows = 2;
    // CTA 0's halo would reach row -2; must clamp to row 0.
    const Addr a = laneAddress(p, kGeom, 0, 0, 0, 0);
    EXPECT_EQ(a / p.rowBytes, 0u);
}

TEST(MemPattern, RandomIsDeterministicAndInBounds)
{
    MemPattern p;
    p.kind = AccessKind::Random;
    p.base = 0x4000;
    p.footprintBytes = 1 << 20;
    const Addr a = laneAddress(p, kGeom, 9, 2, 17, 33);
    EXPECT_EQ(a, laneAddress(p, kGeom, 9, 2, 17, 33));
    EXPECT_GE(a, p.base);
    EXPECT_LT(a, p.base + p.footprintBytes);
}

TEST(MemPattern, BroadcastCoalescesToOneLine)
{
    MemPattern p;
    p.kind = AccessKind::Broadcast;
    std::vector<Addr> lines;
    coalesce(p, kGeom, 0, 0, 0, kWarpSize, 128, lines);
    EXPECT_EQ(lines.size(), 1u);
}

TEST(MemPattern, SharedConflictFreeStride)
{
    MemPattern p;
    p.kind = AccessKind::SharedBank;
    p.space = MemSpace::Shared;
    p.bankStride = 1;
    EXPECT_EQ(sharedConflictFactor(p, kWarpSize), 1u);
}

TEST(MemPattern, SharedEvenStrideConflicts)
{
    MemPattern p;
    p.kind = AccessKind::SharedBank;
    p.space = MemSpace::Shared;
    p.bankStride = 2; // lanes hit 16 banks -> 2-way conflict
    EXPECT_EQ(sharedConflictFactor(p, kWarpSize), 2u);
    p.bankStride = 32; // all lanes in one bank
    EXPECT_EQ(sharedConflictFactor(p, kWarpSize), 32u);
}

TEST(MemPattern, PartialWarpLowersConflicts)
{
    MemPattern p;
    p.kind = AccessKind::SharedBank;
    p.space = MemSpace::Shared;
    p.bankStride = 32;
    EXPECT_EQ(sharedConflictFactor(p, 8), 8u);
}

TEST(MemPattern, ValidationCatchesBadParameters)
{
    MemPattern strided;
    strided.kind = AccessKind::Strided;
    strided.strideElems = 0;
    EXPECT_DEATH(strided.validate(), "strided");

    MemPattern tile;
    tile.kind = AccessKind::CtaTile;
    tile.footprintBytes = 0;
    EXPECT_DEATH(tile.validate(), "footprintBytes");

    MemPattern shared;
    shared.kind = AccessKind::SharedBank;
    shared.space = MemSpace::Global;
    EXPECT_DEATH(shared.validate(), "shared");
}

TEST(MemPattern, CoalesceIntoReusedBufferMatchesFreshVector)
{
    MemPattern strided;
    strided.kind = AccessKind::Strided;
    strided.strideElems = 8;
    MemPattern broadcast;
    broadcast.kind = AccessKind::Broadcast;
    std::vector<Addr> lines;
    coalesce(strided, kGeom, 0, 0, 0, kWarpSize, 128, lines);
    EXPECT_EQ(lines, coalesce(strided, kGeom, 0, 0, 0, kWarpSize, 128));
    // The buffer is cleared, not appended to.
    coalesce(broadcast, kGeom, 0, 0, 3, kWarpSize, 128, lines);
    EXPECT_EQ(lines, coalesce(broadcast, kGeom, 0, 0, 3, kWarpSize, 128));
    EXPECT_EQ(lines.size(), 1u);
}

/** The conflict factor as a 32-lane walk over the banks: the reference
 *  the closed form must match. */
std::uint32_t
conflictFactorByLanes(std::uint32_t stride, std::uint32_t lanes)
{
    constexpr std::uint32_t kBanks = 32;
    std::uint32_t count[kBanks] = {};
    std::uint32_t worst = 0;
    for (std::uint32_t lane = 0; lane < lanes; ++lane)
        worst = std::max(worst, ++count[(lane * stride) % kBanks]);
    return std::max<std::uint32_t>(worst, 1);
}

TEST(MemPattern, SharedConflictClosedFormMatchesLaneWalk)
{
    MemPattern p;
    p.kind = AccessKind::SharedBank;
    p.space = MemSpace::Shared;
    for (std::uint32_t stride = 1; stride <= 64; ++stride) {
        p.bankStride = stride;
        for (std::uint32_t lanes = 1; lanes <= kWarpSize; ++lanes) {
            EXPECT_EQ(sharedConflictFactor(p, lanes),
                      conflictFactorByLanes(stride, lanes))
                << "stride " << stride << ", lanes " << lanes;
        }
    }
}

TEST(MemPattern, CoalesceRejectsBadLaneCount)
{
    MemPattern p;
    p.kind = AccessKind::Coalesced;
    std::vector<Addr> lines;
    EXPECT_DEATH(coalesce(p, kGeom, 0, 0, 0, 0, 128, lines), "active_lanes");
    EXPECT_DEATH(coalesce(p, kGeom, 0, 0, 0, 33, 128, lines),
                 "active_lanes");
}

} // namespace
} // namespace bsched
