/**
 * @file
 * Shared test fixtures: a randomized but reproducible kernel, the
 * small three-core machine the property and golden tests run it on,
 * and randomized machines that vary the issue and memory-admission
 * widths.
 */

#ifndef BSCHED_TESTS_RANDOM_KERNEL_HH
#define BSCHED_TESTS_RANDOM_KERNEL_HH

#include <cstdint>
#include <iterator>
#include <string>

#include "harness/runner.hh"
#include "kernel/kernel_info.hh"
#include "kernel/program_builder.hh"
#include "sim/rng.hh"

namespace bsched {

inline GpuConfig
smallMachine(WarpSchedKind warp, CtaSchedKind cta)
{
    GpuConfig c = makeConfig(warp, cta);
    c.numCores = 3;
    c.numMemPartitions = 2;
    return c;
}

/**
 * A randomized but reproducible valid machine drawn from @p seed: 1-4
 * issue slots, 1-2 LD/ST and SFU ports, an LD/ST queue of 1-4, 1-32 L1
 * MSHRs, a core memory queue of 1-16, odd core and partition counts,
 * and any CTA scheduler. Callers pick the warp scheduler.
 */
inline GpuConfig
randomMachine(std::uint64_t seed)
{
    constexpr CtaSchedKind kCtaScheds[] = {
        CtaSchedKind::RoundRobin, CtaSchedKind::Lazy, CtaSchedKind::Block,
        CtaSchedKind::LazyBlock, CtaSchedKind::Dynamic};
    Rng rng(~seed);
    GpuConfig c = makeConfig(WarpSchedKind::GTO,
                             kCtaScheds[rng.nextBelow(std::size(kCtaScheds))]);
    c.numCores = static_cast<std::uint32_t>(1 + 2 * rng.nextBelow(3));
    c.numMemPartitions = static_cast<std::uint32_t>(1 + 2 * rng.nextBelow(2));
    c.numSchedulersPerCore = static_cast<std::uint32_t>(1 + rng.nextBelow(4));
    c.ldstUnits = static_cast<std::uint32_t>(1 + rng.nextBelow(2));
    c.sfuUnits = static_cast<std::uint32_t>(1 + rng.nextBelow(2));
    c.ldstQueueDepth = static_cast<std::uint32_t>(1 + rng.nextBelow(4));
    c.l1d.mshrEntries = static_cast<std::uint32_t>(1 + rng.nextBelow(32));
    c.coreMemQueue = static_cast<std::uint32_t>(1 + rng.nextBelow(16));
    c.validate();
    return c;
}

/** A randomized but reproducible kernel drawn from @p seed. */
inline KernelInfo
randomKernel(std::uint64_t seed)
{
    Rng rng(seed);
    KernelInfo k;
    k.name = "rand" + std::to_string(seed);
    k.grid = {static_cast<std::uint32_t>(4 + rng.nextBelow(12)), 1, 1};
    k.cta = {static_cast<std::uint32_t>(32 * (1 + rng.nextBelow(4))), 1, 1};
    k.regsPerThread = static_cast<std::uint32_t>(8 + rng.nextBelow(24));
    ProgramBuilder b;
    MemPattern tile;
    tile.kind = AccessKind::CtaTile;
    tile.base = 0x40000000;
    tile.footprintBytes = 1024 << rng.nextBelow(4);
    const auto t = b.pattern(tile);
    MemPattern stream;
    stream.kind = AccessKind::Coalesced;
    stream.base = 0x80000000;
    const auto s = b.pattern(stream);
    const bool barrier = rng.nextBelow(2) == 0;
    b.loop(static_cast<std::uint32_t>(2 + rng.nextBelow(8)),
           barrier ? 0 : static_cast<std::uint32_t>(rng.nextBelow(30)));
    b.load(t).alu(static_cast<int>(1 + rng.nextBelow(5)));
    if (rng.nextBelow(2) == 0)
        b.load(s).alu(1);
    if (barrier)
        b.barrier();
    if (rng.nextBelow(2) == 0)
        b.store(s);
    b.endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

} // namespace bsched

#endif // BSCHED_TESTS_RANDOM_KERNEL_HH
