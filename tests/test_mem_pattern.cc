/**
 * @file
 * Unit tests for the address generators and the coalescer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "kernel/mem_pattern.hh"
#include "sim/rng.hh"

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

/** The coalescer's reference: each lane's laneAddress() line, kept at
 *  its first touch. */
std::vector<Addr>
linesByLane(const MemPattern& p, const KernelGeom& g, std::uint32_t cta,
            std::uint32_t warp, std::uint64_t iter, std::uint32_t lanes,
            std::uint32_t line_bytes)
{
    std::vector<Addr> lines;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const Addr line = laneAddress(p, g, cta, warp, lane, iter) &
            ~static_cast<Addr>(line_bytes - 1);
        if (std::find(lines.begin(), lines.end(), line) == lines.end())
            lines.push_back(line);
    }
    return lines;
}

/** One warp access to check. */
struct Access
{
    MemPattern pattern;
    KernelGeom geom;
    std::uint32_t cta = 0;
    std::uint32_t warp = 0;
    std::uint64_t iter = 0;
    std::uint32_t lanes = kWarpSize;
    std::uint32_t lineBytes = 128;
};

/** A valid random access of global kind @p kind. Sizes are drawn on a
 *  log scale so both tiny and huge tiles, rows and strides occur. */
Access
randomAccess(AccessKind kind, Rng& rng)
{
    auto log_uniform = [&](unsigned max_bits) {
        const unsigned bits = static_cast<unsigned>(rng.nextBelow(max_bits));
        return (std::uint64_t{1} << bits) + rng.nextBelow(std::uint64_t{1}
                                                          << bits);
    };
    Access a;
    MemPattern& p = a.pattern;
    p.kind = kind;
    p.base = rng.next() >> rng.nextBelow(64);
    p.elemBytes = static_cast<std::uint32_t>(log_uniform(14));
    p.strideElems = static_cast<std::uint32_t>(log_uniform(31));
    // Tiles of 1 .. 2^14 elements, not always a whole number of them.
    p.footprintBytes = p.elemBytes * log_uniform(14) +
        rng.nextBelow(p.elemBytes);
    p.rowBytes = static_cast<std::uint32_t>(log_uniform(16));
    p.rowsPerCta = static_cast<std::uint32_t>(1 + rng.nextBelow(8));
    p.haloRows = static_cast<std::uint32_t>(rng.nextBelow(4));
    p.validate();
    a.geom.ctaThreads =
        static_cast<std::uint32_t>(kWarpSize * (1 + rng.nextBelow(32)));
    a.geom.gridCtas = static_cast<std::uint32_t>(1 + rng.nextBelow(1024));
    a.cta = rng.nextBelow(4) == 0
        ? 0
        : static_cast<std::uint32_t>(rng.nextBelow(a.geom.gridCtas));
    a.warp = static_cast<std::uint32_t>(
        rng.nextBelow(a.geom.ctaThreads / kWarpSize));
    a.iter = rng.nextBelow(std::uint64_t{1} << rng.nextBelow(41));
    a.lanes = static_cast<std::uint32_t>(1 + rng.nextBelow(kWarpSize));
    a.lineBytes = 32u << rng.nextBelow(4);
    if (rng.nextBelow(2) == 0) {
        // Lane 0 a log-uniform distance below 2^64, where later lanes
        // can wrap.
        p.base = 0;
        p.base = ~log_uniform(40) -
            laneAddress(p, a.geom, a.cta, a.warp, 0, a.iter);
    }
    return a;
}

void
expectCoalesceMatchesLanes(const Access& a, std::vector<Addr>& lines)
{
    coalesce(a.pattern, a.geom, a.cta, a.warp, a.iter, a.lanes, a.lineBytes,
             lines);
    EXPECT_EQ(lines, linesByLane(a.pattern, a.geom, a.cta, a.warp, a.iter,
                                 a.lanes, a.lineBytes))
        << toString(a.pattern.kind) << " base " << a.pattern.base
        << " elem " << a.pattern.elemBytes << " stride "
        << a.pattern.strideElems << " footprint " << a.pattern.footprintBytes
        << " row " << a.pattern.rowBytes << " cta " << a.cta << " warp "
        << a.warp << " iter " << a.iter << " lanes " << a.lanes
        << " line " << a.lineBytes;
}

TEST(MemPattern, CoalesceMatchesPerLaneReference)
{
    constexpr AccessKind kGlobalKinds[] = {
        AccessKind::Coalesced, AccessKind::Strided,   AccessKind::CtaTile,
        AccessKind::HaloRows,  AccessKind::Random,    AccessKind::Broadcast,
    };
    Rng rng(0xc0a1e5ce);
    std::vector<Addr> lines;
    int wide_rows = 0;     // elemBytes > rowBytes
    int small_tiles = 0;   // fewer tile elements than lanes
    int clamped_halos = 0; // CTA 0 reading its clamped halo row
    int wrapping = 0;      // affine addresses that wrap past 2^64
    for (AccessKind kind : kGlobalKinds) {
        for (int trial = 0; trial < 4000; ++trial) {
            const Access a = randomAccess(kind, rng);
            const MemPattern& p = a.pattern;
            expectCoalesceMatchesLanes(a, lines);
            if (kind == AccessKind::HaloRows) {
                wide_rows += p.elemBytes > p.rowBytes;
                clamped_halos += a.cta == 0 && p.haloRows > 0 &&
                    a.iter % (p.rowsPerCta + 2ULL * p.haloRows) <
                        p.haloRows;
            }
            if (kind == AccessKind::CtaTile)
                small_tiles += p.footprintBytes / p.elemBytes < a.lanes;
            if (kind == AccessKind::Coalesced ||
                kind == AccessKind::Strided) {
                const Addr first =
                    laneAddress(p, a.geom, a.cta, a.warp, 0, a.iter);
                const Addr last = laneAddress(p, a.geom, a.cta, a.warp,
                                              a.lanes - 1, a.iter);
                wrapping += last < first;
            }
        }
    }
    EXPECT_GT(wide_rows, 100);
    EXPECT_GT(small_tiles, 100);
    EXPECT_GT(clamped_halos, 20);
    EXPECT_GT(wrapping, 100);

    // Lane arithmetic that overflows 64 bits: a stride whose lanes
    // alias past lane 8, a tile index and a column byte offset.
    Access strided;
    strided.pattern.kind = AccessKind::Strided;
    strided.pattern.strideElems = 0x80000000u;
    strided.pattern.elemBytes = 0x40000000u; // 2^61 bytes between lanes
    for (strided.lanes = 1; strided.lanes <= kWarpSize; ++strided.lanes) {
        expectCoalesceMatchesLanes(strided, lines);
        EXPECT_EQ(lines.size(), std::min<std::size_t>(strided.lanes, 8));
    }
    // A stride of (2^64 - 1) / 3 bytes: lane 3 lands one byte below
    // lane 0, in lane 0's line, with no 64-bit product overflowing.
    Access thirds;
    thirds.pattern.kind = AccessKind::Strided;
    thirds.pattern.base = 64;
    thirds.pattern.elemBytes = 0xd4d5d4d5u;
    thirds.pattern.strideElems = 0x66a3be81u;
    thirds.lanes = 4;
    expectCoalesceMatchesLanes(thirds, lines);
    EXPECT_EQ(lines.size(), 3u);
    Access tile;
    tile.pattern.kind = AccessKind::CtaTile;
    tile.pattern.footprintBytes = 7 * 4;
    tile.geom = {1, 1};
    tile.iter = ~std::uint64_t{0} - 15; // tid + iter overflows at lane 16
    expectCoalesceMatchesLanes(tile, lines);
    Access halo;
    halo.pattern.kind = AccessKind::HaloRows;
    halo.pattern.elemBytes = 0xffffffffu;
    halo.pattern.rowBytes = 1000;
    halo.pattern.rowsPerCta = 2;
    halo.geom = {kWarpSize, 1};
    halo.warp = 0x7fffffffu; // tid * elemBytes overflows
    expectCoalesceMatchesLanes(halo, lines);
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
