/**
 * @file
 * E2 — the benchmark-characteristics table: per workload, the launch
 * geometry, per-thread/per-CTA resources, the occupancy-limited maximum
 * CTAs per core with its binding limit, and the paper-taxonomy class.
 */

#include <cstdio>

#include "bench_common.hh"
#include "kernel/occupancy.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

int
main(int argc, char** argv)
{
    using namespace bsched;
    // No simulations here; parse anyway so every bench binary shares
    // the same CLI (a stray --jobs is accepted, a typo is rejected).
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const GpuConfig config = GpuConfig::gtx480();
    BenchReport report("tab_workloads");

    std::printf("E2: workload characteristics\n\n");
    Table table("suite");
    table.setHeader({"workload", "grid", "cta", "regs/t", "smem/cta",
                     "Nmax", "limiter", "type", "dyn-instrs", "notes"});
    for (const auto& name : workloadNames()) {
        const KernelInfo k = makeWorkload(name);
        report.addMetric(name + ".grid_ctas", k.gridCtas());
        report.addMetric(name + ".cta_threads", k.ctaThreads());
        report.addMetric(name + ".n_max", maxCtasPerCore(config, k));
        report.addMetric(name + ".dyn_instrs", k.totalDynamicInstrs());
        table.addRow({
            name,
            std::to_string(k.gridCtas()),
            std::to_string(k.ctaThreads()),
            std::to_string(k.regsPerThread),
            std::to_string(k.smemBytesPerCta),
            std::to_string(maxCtasPerCore(config, k)),
            toString(occupancyLimiter(config, k)),
            toString(k.typeClass),
            std::to_string(k.totalDynamicInstrs()),
            workloadNotes(name),
        });
    }
    std::printf("%s", table.toText().c_str());
    bench::writeReport(opts, report);
    return 0;
}
