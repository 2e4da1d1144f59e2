#include "kernel/mem_pattern.hh"

#include <algorithm>
#include <numeric>

#include "sim/check.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace bsched {

namespace {

/** First byte of CTA @p cta's private tile (CtaTile). */
Addr
tileBase(const MemPattern& p, std::uint32_t cta)
{
    return p.base + static_cast<std::uint64_t>(cta) * p.footprintBytes;
}

/** First byte of the row CTA @p cta reads on occurrence @p iter
 *  (HaloRows): CTA c walks rows [c*R - H, (c+1)*R + H), clamped at 0. */
Addr
haloRowBase(const MemPattern& p, std::uint32_t cta, std::uint64_t iter)
{
    const std::uint64_t span = p.rowsPerCta + 2ULL * p.haloRows;
    const std::int64_t first = static_cast<std::int64_t>(cta) * p.rowsPerCta -
        static_cast<std::int64_t>(p.haloRows);
    std::int64_t row = first + static_cast<std::int64_t>(iter % span);
    if (row < 0)
        row = 0;
    return p.base + static_cast<std::uint64_t>(row) * p.rowBytes;
}

} // namespace

const char*
toString(AccessKind kind)
{
    switch (kind) {
      case AccessKind::Coalesced: return "coalesced";
      case AccessKind::Strided: return "strided";
      case AccessKind::CtaTile: return "cta-tile";
      case AccessKind::HaloRows: return "halo-rows";
      case AccessKind::Random: return "random";
      case AccessKind::Broadcast: return "broadcast";
      case AccessKind::SharedBank: return "shared-bank";
    }
    return "?";
}

void
MemPattern::validate() const
{
    if (elemBytes == 0)
        fatal("mem pattern: elemBytes must be > 0");
    switch (kind) {
      case AccessKind::Strided:
        if (strideElems == 0)
            fatal("mem pattern: strided needs strideElems > 0");
        break;
      case AccessKind::CtaTile:
      case AccessKind::Random:
        if (footprintBytes < elemBytes)
            fatal("mem pattern: ", toString(kind),
                  " needs footprintBytes >= elemBytes");
        break;
      case AccessKind::HaloRows:
        if (rowBytes == 0 || rowsPerCta == 0)
            fatal("mem pattern: halo-rows needs rowBytes and rowsPerCta");
        break;
      case AccessKind::SharedBank:
        if (space != MemSpace::Shared)
            fatal("mem pattern: shared-bank must target shared space");
        if (bankStride == 0)
            fatal("mem pattern: bankStride must be > 0");
        break;
      case AccessKind::Coalesced:
      case AccessKind::Broadcast:
        break;
    }
    if (kind != AccessKind::SharedBank && space == MemSpace::Shared)
        fatal("mem pattern: shared space requires shared-bank kind");
}

Addr
laneAddress(const MemPattern& p, const KernelGeom& g, std::uint32_t cta,
            std::uint32_t warp_in_cta, std::uint32_t lane,
            std::uint64_t iter)
{
    const std::uint64_t tid_in_cta =
        static_cast<std::uint64_t>(warp_in_cta) * kWarpSize + lane;
    const std::uint64_t global_tid =
        static_cast<std::uint64_t>(cta) * g.ctaThreads + tid_in_cta;
    const std::uint64_t grid_threads =
        static_cast<std::uint64_t>(g.gridCtas) * g.ctaThreads;

    switch (p.kind) {
      case AccessKind::Coalesced:
        // Streaming: iteration i touches the next grid-sized slab.
        return p.base + (global_tid + iter * grid_threads) * p.elemBytes;

      case AccessKind::Strided:
        return p.base +
            (global_tid * p.strideElems +
             iter * grid_threads * p.strideElems) * p.elemBytes;

      case AccessKind::CtaTile: {
        // Each CTA cyclically re-walks its private tile: on iteration i
        // the warp reads tile element ((tid + i*ctaThreads) mod tileElems).
        const std::uint64_t tile_elems = p.footprintBytes / p.elemBytes;
        const std::uint64_t idx =
            (tid_in_cta + iter * g.ctaThreads) % tile_elems;
        return tileBase(p, cta) + idx * p.elemBytes;
      }

      case AccessKind::HaloRows: {
        // Consecutive CTAs share the 2H halo rows. Row selected by
        // iteration, column by thread.
        const std::uint64_t col =
            (tid_in_cta * p.elemBytes) % p.rowBytes;
        return haloRowBase(p, cta, iter) + col;
      }

      case AccessKind::Random: {
        const std::uint64_t elems = p.footprintBytes / p.elemBytes;
        const std::uint64_t h = mix64(hashCombine(
            hashCombine(cta, warp_in_cta * 37ULL + lane), iter));
        return p.base + (h % elems) * p.elemBytes;
      }

      case AccessKind::Broadcast:
        return p.base + (iter % 16) * p.elemBytes;

      case AccessKind::SharedBank:
        // Shared memory is modeled by the bank-conflict factor only; the
        // address is nominal.
        return p.base + tid_in_cta * p.elemBytes * p.bankStride;
    }
    panic("laneAddress: unhandled pattern kind");
}

namespace {

/** Append @p line to @p out unless an earlier lane touched it. */
void
addLine(std::vector<Addr>& out, Addr line)
{
    if (std::find(out.begin(), out.end(), line) == out.end())
        out.push_back(line);
}

/** The per-lane form: each lane's laneAddress() line, kept at its first
 *  touch. Random's path, and the reference validate builds check. */
void
coalesceByLane(const MemPattern& p, const KernelGeom& g, std::uint32_t cta,
               std::uint32_t warp_in_cta, std::uint64_t iter,
               std::uint32_t lanes, Addr mask, std::vector<Addr>& out)
{
    for (std::uint32_t lane = 0; lane < lanes; ++lane)
        addLine(out, laneAddress(p, g, cta, warp_in_cta, lane, iter) & mask);
}

/**
 * The lines of lanes 0..@p lanes-1 reading a0 + lane * step (mod 2^64).
 * If the last lane's address does not pass 2^64 the lanes ascend, so
 * only the line pushed last can repeat: lanes a line or more apart each
 * add a line, and closer lanes add every line from lane 0's to the last
 * lane's. Otherwise each lane's line is deduplicated against them all.
 */
void
coalesceAffine(Addr a0, std::uint64_t step, std::uint32_t lanes, Addr mask,
               std::vector<Addr>& out)
{
    std::uint64_t span = 0;
    Addr last = 0;
    if (__builtin_mul_overflow(step, lanes - 1, &span) ||
        __builtin_add_overflow(a0, span, &last)) {
        for (std::uint32_t lane = 0; lane < lanes; ++lane, a0 += step)
            addLine(out, a0 & mask);
        return;
    }
    const std::uint64_t line_bytes = ~mask + 1;
    if (step >= line_bytes) {
        for (std::uint32_t lane = 0; lane < lanes; ++lane, a0 += step)
            out.push_back(a0 & mask);
        return;
    }
    for (Addr line = a0 & mask; line != (last & mask); line += line_bytes)
        out.push_back(line);
    out.push_back(last & mask);
}

/**
 * The lines of lanes reading base + offset, where lane 0's offset is
 * @p offset < @p modulus and each further lane adds @p step <= @p modulus,
 * wrapping at @p modulus: a CtaTile element index cycling through its
 * tile, a HaloRows column through its row. Affine unless the offset
 * wraps inside the warp.
 */
void
coalesceCyclic(Addr base, std::uint64_t offset, std::uint32_t step,
               std::uint64_t modulus, std::uint32_t lanes, Addr mask,
               std::vector<Addr>& out)
{
    if (static_cast<std::uint64_t>(lanes - 1) * step < modulus - offset) {
        coalesceAffine(base + offset, step, lanes, mask, out);
        return;
    }
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        addLine(out, (base + offset) & mask);
        offset = offset >= modulus - step ? offset - (modulus - step)
                                          : offset + step;
    }
}

} // namespace

void
coalesce(const MemPattern& p, const KernelGeom& g, std::uint32_t cta,
         std::uint32_t warp_in_cta, std::uint64_t iter,
         std::uint32_t active_lanes, std::uint32_t line_bytes,
         std::vector<Addr>& out)
{
    if (active_lanes == 0 || active_lanes > kWarpSize)
        panic("coalesce: active_lanes out of range: ", active_lanes);
    const Addr mask = ~static_cast<Addr>(line_bytes - 1);
    const std::uint64_t tid0 =
        static_cast<std::uint64_t>(warp_in_cta) * kWarpSize;
    const std::uint32_t last_lane = active_lanes - 1;
    out.clear();
    switch (p.kind) {
      case AccessKind::Coalesced:
        coalesceAffine(laneAddress(p, g, cta, warp_in_cta, 0, iter),
                       p.elemBytes, active_lanes, mask, out);
        break;

      case AccessKind::Strided:
        coalesceAffine(laneAddress(p, g, cta, warp_in_cta, 0, iter),
                       static_cast<std::uint64_t>(p.strideElems) *
                           p.elemBytes,
                       active_lanes, mask, out);
        break;

      case AccessKind::CtaTile: {
        // Lane l reads tile element (x0 + l) mod tileElems while x0 + l
        // stays below 2^64.
        const std::uint64_t x0 = tid0 + iter * g.ctaThreads;
        if (x0 > ~std::uint64_t{0} - last_lane) {
            coalesceByLane(p, g, cta, warp_in_cta, iter, active_lanes, mask,
                           out);
            break;
        }
        const std::uint64_t tile_elems = p.footprintBytes / p.elemBytes;
        coalesceCyclic(tileBase(p, cta), x0 % tile_elems * p.elemBytes,
                       p.elemBytes, tile_elems * p.elemBytes, active_lanes,
                       mask, out);
        break;
      }

      case AccessKind::HaloRows: {
        // One row for the warp; lane l reads its column
        // ((tid0 + l) * elemBytes) mod rowBytes while that product stays
        // below 2^64.
        std::uint64_t end_byte = 0;
        if (__builtin_mul_overflow(tid0 + last_lane, p.elemBytes,
                                   &end_byte)) {
            coalesceByLane(p, g, cta, warp_in_cta, iter, active_lanes, mask,
                           out);
            break;
        }
        coalesceCyclic(haloRowBase(p, cta, iter),
                       tid0 * p.elemBytes % p.rowBytes,
                       p.elemBytes % p.rowBytes, p.rowBytes, active_lanes,
                       mask, out);
        break;
      }

      case AccessKind::Broadcast:
        out.push_back(laneAddress(p, g, cta, warp_in_cta, 0, iter) & mask);
        break;

      case AccessKind::Random:
      case AccessKind::SharedBank:
        coalesceByLane(p, g, cta, warp_in_cta, iter, active_lanes, mask,
                       out);
        break;
    }
    if constexpr (kChecksEnabled) {
        std::vector<Addr> by_lane;
        coalesceByLane(p, g, cta, warp_in_cta, iter, active_lanes, mask,
                       by_lane);
        BSCHED_CHECK(out == by_lane, "coalesce: ", toString(p.kind),
                     " access of cta ", cta, " warp ", warp_in_cta,
                     " iter ", iter, " yields ", out.size(),
                     " lines, its lanes ", by_lane.size());
    }
}

std::vector<Addr>
coalesce(const MemPattern& p, const KernelGeom& g, std::uint32_t cta,
         std::uint32_t warp_in_cta, std::uint64_t iter,
         std::uint32_t active_lanes, std::uint32_t line_bytes)
{
    std::vector<Addr> lines;
    lines.reserve(8);
    coalesce(p, g, cta, warp_in_cta, iter, active_lanes, line_bytes, lines);
    return lines;
}

std::uint32_t
sharedConflictFactor(const MemPattern& p, std::uint32_t active_lanes)
{
    constexpr std::uint32_t kBanks = 32;
    if (p.kind != AccessKind::SharedBank)
        return 1;
    const std::uint32_t period = kBanks / std::gcd(p.bankStride, kBanks);
    return std::max<std::uint32_t>((active_lanes + period - 1) / period, 1);
}

} // namespace bsched
