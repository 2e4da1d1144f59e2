/**
 * @file
 * E7 — accuracy of the LCS estimator: the per-core N_opt the monitor
 * decided (mode across cores) against the oracle's best static CTA
 * limit, per workload.
 */

#include <cstdio>
#include <map>
#include <string>

#include "bench_common.hh"
#include "harness/runner.hh"
#include "gpu/gpu.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

namespace {

/** Most frequent decided N_opt across cores (from the run's stats). */
int
modeNopt(const bsched::StatSet& stats)
{
    std::map<int, int> freq;
    for (const auto& name : stats.namesBySuffix(".n_opt"))
        ++freq[static_cast<int>(stats.get(name))];
    int best = 0;
    int best_count = 0;
    for (const auto& [n, count] : freq) {
        if (count > best_count) {
            best = n;
            best_count = count;
        }
    }
    return best;
}

} // namespace

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

    std::printf("E7: LCS-chosen CTA count vs the oracle's best static "
                "limit\n(the applied cap is estimate + %u slack, clamped "
                "to Nmax; %u jobs)\n\n",
                lcs.lcs.slackCtas, jobs);
    Table table("N_opt accuracy");
    table.setHeader({"workload", "Nmax", "estimate", "applied-cap",
                     "oracle-N", "|est-oracle|", "LCS/oracle IPC"});
    int exact = 0;
    int within1 = 0;
    int total = 0;
    // Representative subset (the full oracle sweep is E6's job): all
    // peaked workloads plus one saturating and one increasing control.
    const std::vector<std::string> names = {"kmeans", "sc",  "srad",
                                            "pf",     "bfs", "lavamd",
                                            "bp",     "gemm"};

    std::vector<KernelInfo> kernels;
    for (const std::string& name : names)
        kernels.push_back(makeWorkload(name));
    const auto lazy_runs = bench::runKernelGrid(kernels, {lcs}, jobs);
    const auto oracles = oracleStaticBest(base, kernels, jobs);

    BenchReport report("tab_lcs_accuracy");
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string& name = names[i];
        const RunResult& lazy = lazy_runs.at(i, 0);
        const OracleResult& oracle = oracles[i];
        const int cap = std::min(modeNopt(lazy.stats),
                                 static_cast<int>(oracle.maxLimit));
        const int estimate =
            std::max(1, cap - static_cast<int>(lcs.lcs.slackCtas));
        const int diff =
            std::abs(estimate - static_cast<int>(oracle.bestLimit));
        exact += diff == 0;
        within1 += diff <= 1;
        ++total;
        table.addRow({name, std::to_string(oracle.maxLimit),
                      std::to_string(estimate), std::to_string(cap),
                      std::to_string(oracle.bestLimit),
                      std::to_string(diff),
                      fmt(lazy.ipc / oracle.byLimit[oracle.bestLimit - 1].ipc,
                          3)});
        report.addRow(name + "/lcs", lazy);
        report.addMetric(name + ".estimate", estimate);
        report.addMetric(name + ".applied_cap", cap);
        report.addMetric(name + ".oracle_n", oracle.bestLimit);
        report.addMetric(name + ".abs_error", diff);
    }
    std::printf("%s\n", table.toText().c_str());
    std::printf("exact matches: %d/%d, within +/-1: %d/%d\n", exact, total,
                within1, total);
    report.addMetric("exact_matches", exact);
    report.addMetric("within_one", within1);
    report.addMetric("total", total);

    bench::writeReport(opts, report);
    bench::writeRunArtifacts(opts, lcs, makeWorkload("kmeans"),
                              "kmeans/lcs");
    return 0;
}
