/**
 * @file
 * E6 — the LCS headline figure: per-workload speedup of LCS over the
 * max-CTA baseline, alongside the oracle (best static per-core CTA
 * limit). The paper's claim: LCS captures most of the oracle's gain on
 * type-3 workloads while never hurting type-1/2.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "harness/runner.hh"
#include "sim/stats.hh"
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
    const GpuConfig lcs = makeConfig(WarpSchedKind::GTO,
                                     CtaSchedKind::Lazy);

    std::printf("E6: LCS speedup over max-CTA baseline vs the static "
                "oracle\n(GTO warp scheduler everywhere; %u jobs)\n\n",
                jobs);

    Table table("speedup over baseline");
    table.setHeader({"workload", "type", "base-IPC", "LCS", "oracle",
                     "oracle-N"});
    std::vector<double> lcs_speedups;
    std::vector<double> oracle_speedups;
    std::vector<std::pair<std::string, double>> bars;

    BenchReport report("fig_lcs_speedup");
    const auto names = workloadNames();
    std::vector<KernelInfo> kernels;
    for (const std::string& name : names)
        kernels.push_back(makeWorkload(name));
    const auto grid = bench::runKernelGrid(kernels, {base, lcs}, jobs);
    const auto oracles = oracleStaticBest(base, kernels, jobs);
    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string& name = names[w];
        const KernelInfo& kernel = kernels[w];
        const RunResult& baseline = grid.at(w, 0);
        const RunResult& lazy = grid.at(w, 1);
        const OracleResult& oracle = oracles[w];
        const double s_lcs = lazy.ipc / baseline.ipc;
        const double s_oracle =
            oracle.byLimit[oracle.bestLimit - 1].ipc / baseline.ipc;
        lcs_speedups.push_back(s_lcs);
        oracle_speedups.push_back(s_oracle);
        report.addRow(name + "/base", baseline);
        report.addRow(name + "/lcs", lazy);
        report.addMetric(name + ".speedup_lcs", s_lcs);
        report.addMetric(name + ".speedup_oracle", s_oracle);
        report.addMetric(name + ".oracle_limit", oracle.bestLimit);
        table.addRow({name, toString(kernel.typeClass),
                      fmt(baseline.ipc, 2), fmt(s_lcs, 3), fmt(s_oracle, 3),
                      std::to_string(oracle.bestLimit)});
        bars.emplace_back(name, s_lcs);
    }
    table.addRow({"geomean", "", "", fmt(geomean(lcs_speedups), 3),
                  fmt(geomean(oracle_speedups), 3), ""});
    std::printf("%s\n", table.toText().c_str());
    std::printf("%s", barChart("LCS speedup over baseline", bars).c_str());

    report.addMetric("geomean.speedup_lcs", geomean(lcs_speedups));
    report.addMetric("geomean.speedup_oracle", geomean(oracle_speedups));
    bench::writeReport(opts, report);
    bench::writeRunArtifacts(opts, lcs, makeWorkload("srad"),
                              "srad/lcs");
    return 0;
}
