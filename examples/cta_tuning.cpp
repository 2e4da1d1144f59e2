/**
 * @file
 * CTA-count tuning walkthrough: builds a cache-sensitive kernel, sweeps
 * the static per-core CTA limit to expose the paper's "type-3" curve,
 * then lets LCS find the limit automatically and compares against the
 * oracle. This is the end-to-end LCS story on a single kernel.
 */

#include <cstdio>

#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "sim/log.hh"
#include "sim/table.hh"

int
main()
{
    using namespace bsched;
    setLogLevelFromEnv(); // honour BSCHED_LOG=silent|warn|info|debug

    // A kmeans-like kernel: every CTA repeatedly re-walks a private 8KB
    // tile. One or two resident CTAs fit in the 16KB L1; the occupancy
    // maximum (6) thrashes it.
    ProgramBuilder builder;
    MemPattern tile;
    tile.kind = AccessKind::CtaTile;
    tile.base = 0x40000000;
    tile.footprintBytes = 8 * 1024;
    const auto t = builder.pattern(tile);
    builder.loop(60).load(t).alu(4).load(t).alu(4).endLoop();

    KernelInfo kernel;
    kernel.name = "tile-walk";
    kernel.grid = {360, 1, 1};
    kernel.cta = {256, 1, 1};
    kernel.regsPerThread = 20;
    kernel.program = builder.build();

    const GpuConfig base = makeConfig(WarpSchedKind::GTO,
                                      CtaSchedKind::RoundRobin);

    // The limits are independent simulation points; the sweep fans out
    // across resolveJobs() workers (BSCHED_JOBS to override).
    std::printf("Sweeping the static CTA limit (the oracle search, "
                "%u jobs)...\n\n",
                resolveJobs());
    const OracleResult oracle = oracleStaticBest(base, {kernel})[0];
    Table table("IPC vs CTAs per core");
    table.setHeader({"CTAs/core", "IPC", "L1 miss %"});
    for (std::uint32_t n = 1; n <= oracle.maxLimit; ++n) {
        const RunResult& r = oracle.byLimit[n - 1];
        table.addRow({std::to_string(n), fmt(r.ipc, 2),
                      fmt(100 * r.l1MissRate(), 1)});
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("Best static limit: %u of %u\n\n", oracle.bestLimit,
                oracle.maxLimit);

    std::printf("Now letting LCS find the limit online...\n");
    const GpuConfig lcs = makeConfig(WarpSchedKind::GTO,
                                     CtaSchedKind::Lazy);
    const RunResult lazy = runKernel(lcs, kernel);
    const double base_ipc = oracle.byLimit[oracle.maxLimit - 1].ipc;
    const double best_ipc = oracle.byLimit[oracle.bestLimit - 1].ipc;
    std::printf("  baseline (max CTAs) IPC: %s\n", fmt(base_ipc, 2).c_str());
    std::printf("  LCS IPC               : %s (%sx)\n",
                fmt(lazy.ipc, 2).c_str(),
                fmt(lazy.ipc / base_ipc, 3).c_str());
    std::printf("  oracle IPC            : %s (%sx)\n",
                fmt(best_ipc, 2).c_str(),
                fmt(best_ipc / base_ipc, 3).c_str());
    std::printf("  LCS chose (per core)  :");
    for (const auto& name : lazy.stats.namesBySuffix(".n_opt"))
        std::printf(" %d", static_cast<int>(lazy.stats.get(name)));
    std::printf("\n");
    return 0;
}
