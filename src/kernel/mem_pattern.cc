#include "kernel/mem_pattern.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace bsched {

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
        return p.base + static_cast<std::uint64_t>(cta) * p.footprintBytes +
            idx * p.elemBytes;
      }

      case AccessKind::HaloRows: {
        // CTA c walks rows [c*R - H, (c+1)*R + H); consecutive CTAs share
        // the 2H halo rows. Row selected by iteration, column by thread.
        const std::uint64_t span = p.rowsPerCta + 2ULL * p.haloRows;
        const std::int64_t first =
            static_cast<std::int64_t>(cta) * p.rowsPerCta -
            static_cast<std::int64_t>(p.haloRows);
        std::int64_t row = first + static_cast<std::int64_t>(iter % span);
        if (row < 0)
            row = 0;
        const std::uint64_t col =
            (tid_in_cta * p.elemBytes) % p.rowBytes;
        return p.base + static_cast<std::uint64_t>(row) * p.rowBytes + col;
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

void
coalesce(const MemPattern& p, const KernelGeom& g, std::uint32_t cta,
         std::uint32_t warp_in_cta, std::uint64_t iter,
         std::uint32_t active_lanes, std::uint32_t line_bytes,
         std::vector<Addr>& out)
{
    if (active_lanes == 0 || active_lanes > kWarpSize)
        panic("coalesce: active_lanes out of range: ", active_lanes);
    const Addr mask = ~static_cast<Addr>(line_bytes - 1);
    out.clear();
    for (std::uint32_t lane = 0; lane < active_lanes; ++lane) {
        Addr line = laneAddress(p, g, cta, warp_in_cta, lane, iter) & mask;
        if (std::find(out.begin(), out.end(), line) == out.end())
            out.push_back(line);
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
