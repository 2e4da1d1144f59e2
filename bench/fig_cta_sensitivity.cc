/**
 * @file
 * E3 — the paper's motivation figure: normalized IPC as a function of
 * the number of concurrent CTAs per core, for every suite workload.
 * Demonstrates the three workload types (saturating / increasing /
 * peaked) and that the maximum CTA count does not maximize performance.
 *
 * Reproduces: IPC-vs-CTAs/core figure (motivation section).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/runner.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

int
main(int argc, char** argv)
{
    using namespace bsched;
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const unsigned jobs = opts.jobs;
    const GpuConfig base = makeConfig(WarpSchedKind::GTO,
                                      CtaSchedKind::RoundRobin);

    std::printf("E3: normalized IPC vs CTAs/core (GTO warp scheduler, "
                "RR CTA scheduler; %u jobs)\n\n",
                jobs);

    Table table("IPC normalized to max-CTA baseline");
    table.setHeader({"workload", "type", "Nmax", "1", "2", "3", "4", "5",
                     "6", "7", "8", "best-N"});

    BenchReport report("fig_cta_sensitivity");
    const auto names = workloadNames();
    std::vector<KernelInfo> kernels;
    for (const std::string& name : names)
        kernels.push_back(makeWorkload(name));
    const auto oracles = oracleStaticBest(base, kernels, jobs);
    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string& name = names[w];
        const std::vector<RunResult>& sweep = oracles[w].byLimit;
        const std::uint32_t n_max = oracles[w].maxLimit;
        const double base_ipc = sweep.back().ipc;

        std::vector<std::string> row = {name,
                                        toString(kernels[w].typeClass),
                                        std::to_string(n_max)};
        for (std::uint32_t n = 1; n <= 8; ++n) {
            row.push_back(n <= n_max ? fmt(sweep[n - 1].ipc / base_ipc, 3)
                                     : "-");
        }
        row.push_back(std::to_string(oracles[w].bestLimit));
        table.addRow(row);
        for (std::uint32_t n = 1; n <= n_max; ++n)
            report.addRow(name + "/n" + std::to_string(n), sweep[n - 1]);
        report.addMetric(name + ".n_max", n_max);
        report.addMetric(name + ".best_n", oracles[w].bestLimit);
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("Reading: type-1 rows flatten early, type-2 rows rise to "
                "Nmax,\ntype-3 rows peak below Nmax and then decline.\n");

    bench::writeReport(opts, report);
    bench::writeRunArtifacts(opts, base, makeWorkload("kmeans"),
                              "kmeans/base");
    return 0;
}
