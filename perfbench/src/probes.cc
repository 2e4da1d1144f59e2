/**
 * @file
 * Component probes: host ns per call of the public core, memory and
 * kernel functions the simulator's busy path runs, fed with the
 * address streams coalesce() produces from the workload's own global
 * memory patterns. They show which component a busy-path change moved
 * without instrumenting the simulator itself.
 */

#include <algorithm>

#include "bench.hh"
#include "core/warp_sched.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace {

using namespace bsched;

/** Warp accesses sampled per pattern: CTAs x warps x iterations. */
constexpr std::uint32_t kCtas = 8;
constexpr std::uint32_t kWarps = 4;
constexpr std::uint32_t kIters = 16;

/** Picks timed per warp-scheduler policy. */
constexpr int kPicks = 200000;

struct Access
{
    const MemPattern* pattern;
    KernelGeom geom;
    std::uint32_t cta, warp, iter;
};

double
nsPer(double seconds, double calls)
{
    return calls > 0 ? 1e9 * seconds / calls : 0.0;
}

} // namespace

void
runProbes(const std::vector<KernelInfo>& kernels, Report& report)
{
    ScopedSpan probes("probes");
    const GpuConfig config = GpuConfig::gtx480();
    const std::uint32_t line = config.l1d.lineBytes;
    auto& layers = report.layers;

    std::vector<Access> accesses;
    for (const KernelInfo& k : kernels) {
        for (const MemPattern& p : k.program.patterns()) {
            if (p.space != MemSpace::Global)
                continue;
            for (std::uint32_t c = 0; c < std::min(kCtas, k.gridCtas()); ++c)
                for (std::uint32_t w = 0; w < kWarps; ++w)
                    for (std::uint32_t i = 0; i < kIters; ++i)
                        accesses.push_back({&p, k.geom(), c, w, i});
        }
    }

    // kernel: the coalescer, and the line stream the memory probes use.
    std::vector<Addr> lines;
    {
        ScopedSpan span("kernel.coalesce");
        const double t0 = now();
        for (const Access& a : accesses) {
            const std::vector<Addr> got = coalesce(
                *a.pattern, a.geom, a.cta, a.warp, a.iter, kWarpSize, line);
            lines.insert(lines.end(), got.begin(), got.end());
        }
        layers["kernel.coalesce_ns"] =
            nsPer(now() - t0, static_cast<double>(accesses.size()));
    }

    // mem: L1D tag array, hit-or-fill.
    {
        ScopedSpan span("mem.l1d");
        TagArray l1(config.l1d, "probe.l1d");
        const double t0 = now();
        Cycle t = 0;
        for (const Addr a : lines) {
            if (!l1.access(a, ++t))
                l1.fill(a, t);
        }
        layers["mem.l1d_access_ns"] =
            nsPer(now() - t0, static_cast<double>(lines.size()));
    }

    // mem: one DRAM channel serving the line stream as reads.
    {
        ScopedSpan span("mem.dram");
        DramChannel dram(config.dram, line, config.numMemPartitions,
                         "probe.dram");
        const double t0 = now();
        std::size_t next = 0;
        std::size_t served = 0;
        Cycle t = 0;
        for (; served < lines.size(); ++t) {
            if (next < lines.size() && dram.canAccept())
                dram.push(t, lines[next++], false);
            dram.tick(t);
            while (dram.responseReady(t)) {
                dram.popResponse(t);
                ++served;
            }
        }
        layers["mem.dram_tick_ns"] = nsPer(now() - t0, static_cast<double>(t));
    }

    // mem: interconnect requests, core -> partition, injection to ejection.
    {
        ScopedSpan span("mem.icnt");
        Interconnect icnt(config);
        const double t0 = now();
        std::size_t next = 0;
        std::size_t ejected = 0;
        for (Cycle t = 0; ejected < lines.size(); ++t) {
            for (std::uint32_t c = 0; c < config.numCores &&
                 next < lines.size(); ++c) {
                const std::uint32_t p = icnt.partitionFor(lines[next]);
                if (!icnt.canSendRequest(p))
                    break;
                MemRequest req;
                req.lineAddr = lines[next++];
                req.coreId = static_cast<std::uint16_t>(c);
                icnt.sendRequest(t, req);
            }
            for (std::uint32_t p = 0; p < config.numMemPartitions; ++p) {
                while (icnt.requestReady(p, t) && icnt.ejectBudget(p, t)) {
                    icnt.popRequest(p, t);
                    ++ejected;
                }
            }
        }
        layers["mem.icnt_ns"] =
            nsPer(now() - t0, static_cast<double>(lines.size()));
    }

    // core: one issue slot's pick() over seeded ready sets.
    const std::uint32_t num_warps = config.maxWarpsPerCore();
    std::vector<Warp> warps(num_warps);
    for (std::uint32_t w = 0; w < num_warps; ++w) {
        warps[w].valid = true;
        warps[w].warpInCta = w % 8;
        warps[w].ctaSeq = w / 8;
        warps[w].blockSeq = w / 16;
    }
    Rng rng(0x5eed);
    std::vector<std::vector<int>> ready_sets(256);
    for (auto& ready : ready_sets) {
        for (std::uint32_t w = 0; w < num_warps; w += 2) {
            if (rng.nextBelow(3) != 0)
                ready.push_back(static_cast<int>(w));
        }
        if (ready.empty())
            ready.push_back(0);
    }
    const std::pair<const char*, WarpSchedKind> policies[] = {
        {"lrr", WarpSchedKind::LRR},
        {"gto", WarpSchedKind::GTO},
        {"two_level", WarpSchedKind::TwoLevel},
        {"baws", WarpSchedKind::BAWS},
    };
    for (const auto& [name, kind] : policies) {
        ScopedSpan span("core.warp_pick");
        auto sched = WarpScheduler::create(kind, config.twoLevelActiveSize);
        std::vector<Warp> table = warps;
        const double t0 = now();
        for (int i = 0; i < kPicks; ++i) {
            const std::vector<int>& ready = ready_sets[i % ready_sets.size()];
            const int id = sched->pick(ready, table);
            sched->notifyIssued(id, table);
            ++table[static_cast<std::size_t>(id)].instrsIssued;
        }
        layers[std::string("core.warp_pick_ns.") + name] =
            nsPer(now() - t0, kPicks);
    }
}

} // namespace perfbench
