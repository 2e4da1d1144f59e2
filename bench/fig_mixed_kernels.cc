/**
 * @file
 * E11 — mixed concurrent kernel execution: resource-complementary
 * kernel pairs (a peaked/memory kernel with an increasing/compute
 * kernel) run (a) sequentially, (b) spatially partitioned, and (c)
 * mixed on every core with LCS carving out the space. Reports total
 * runtime speedup over sequential, STP, ANTT, and the per-kernel
 * fairness view (max slowdown, min-max fairness) that ANTT's mean
 * hides. Each distinct workload's isolated baseline is simulated once
 * and handed to every pair and policy that runs it.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hh"
#include "gpu/multi_kernel.hh"
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
    const GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                        CtaSchedKind::RoundRobin);

    // Resource-complementary pairs first (the kernels are limited by
    // different resources, so both fit on one core), then conflicting
    // pairs (both register/thread-limited) as the partner-selection
    // ablation: MCK only pays off when the pair is complementary.
    const std::vector<std::tuple<std::string, std::string, bool>> pairs = {
        {"kmeans", "lud", true}, {"sc", "lud", true},
        {"bfs", "lud", true},    {"nn", "lavamd", true},
        {"kmeans", "gemm", false}, {"srad", "gemm", false},
    };

    std::printf("E11: mixed concurrent kernel execution on kernel pairs\n"
                "(speedup = sequential total cycles / policy total "
                "cycles; %u jobs)\n\n",
                jobs);
    Table table("multi-kernel policies");
    table.setHeader({"pair", "fit", "seq-cycles", "spatial-speedup",
                     "mixed-speedup", "spatial-STP", "mixed-STP",
                     "spatial-ANTT", "mixed-ANTT", "mixed-maxslow",
                     "mixed-fair"});
    std::vector<double> spatial_speedups;
    std::vector<double> mixed_speedups;

    const ParallelRunner runner(jobs);

    // Isolated runtimes are policy-independent; compute each unique
    // workload once, fanned out across the pool.
    std::vector<std::string> uniq;
    for (const auto& [a, b, complementary] : pairs) {
        (void)complementary;
        for (const std::string& name : {a, b}) {
            if (std::find(uniq.begin(), uniq.end(), name) == uniq.end())
                uniq.push_back(name);
        }
    }
    const auto iso_cycles = runner.map<Cycle>(uniq.size(), [&](std::size_t i) {
        const KernelInfo k = makeWorkload(uniq[i]);
        Gpu gpu(config);
        const int id = gpu.launchKernel(k);
        gpu.run();
        return gpu.kernelCycles(id);
    });
    auto isolatedOf = [&](const std::string& name) {
        const auto at = std::find(uniq.begin(), uniq.end(), name);
        return iso_cycles[static_cast<std::size_t>(at - uniq.begin())];
    };

    // One independent point per (pair, policy); each owns its kernels.
    const std::vector<MultiKernelPolicy> policies = {
        MultiKernelPolicy::Sequential, MultiKernelPolicy::Spatial,
        MultiKernelPolicy::Mixed};
    const auto reports = runner.map<MultiKernelReport>(
        pairs.size() * policies.size(), [&](std::size_t i) {
            const auto& [a, b, complementary] = pairs[i / policies.size()];
            (void)complementary;
            const KernelInfo ka = makeWorkload(a);
            const KernelInfo kb = makeWorkload(b);
            const std::vector<const KernelInfo*> kernels = {&ka, &kb};
            const std::vector<Cycle> isolated = {isolatedOf(a),
                                                 isolatedOf(b)};
            return runMultiKernel(config, kernels,
                                  policies[i % policies.size()], {},
                                  &isolated);
        });

    BenchReport report("fig_mixed_kernels");
    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const auto& [a, b, complementary] = pairs[p];
        const MultiKernelReport& seq = reports[p * policies.size() + 0];
        const MultiKernelReport& spa = reports[p * policies.size() + 1];
        const MultiKernelReport& mix = reports[p * policies.size() + 2];
        const double s_spatial = static_cast<double>(seq.totalCycles) /
            static_cast<double>(spa.totalCycles);
        const double s_mixed = static_cast<double>(seq.totalCycles) /
            static_cast<double>(mix.totalCycles);
        if (complementary) {
            spatial_speedups.push_back(s_spatial);
            mixed_speedups.push_back(s_mixed);
        }
        const std::string pair = a + "+" + b;
        report.addMetric(pair + ".seq_cycles", seq.totalCycles);
        report.addMetric(pair + ".speedup_spatial", s_spatial);
        report.addMetric(pair + ".speedup_mixed", s_mixed);
        report.addMetric(pair + ".stp_spatial", spa.stp());
        report.addMetric(pair + ".stp_mixed", mix.stp());
        report.addMetric(pair + ".antt_spatial", spa.antt());
        report.addMetric(pair + ".antt_mixed", mix.antt());
        report.addMetric(pair + ".max_slowdown_spatial", spa.maxSlowdown());
        report.addMetric(pair + ".max_slowdown_mixed", mix.maxSlowdown());
        report.addMetric(pair + ".fairness_spatial", spa.fairness());
        report.addMetric(pair + ".fairness_mixed", mix.fairness());
        table.addRow({a + "+" + b, complementary ? "compl." : "conflict",
                      std::to_string(seq.totalCycles),
                      fmt(s_spatial, 3), fmt(s_mixed, 3),
                      fmt(spa.stp(), 2), fmt(mix.stp(), 2),
                      fmt(spa.antt(), 2), fmt(mix.antt(), 2),
                      fmt(mix.maxSlowdown(), 2), fmt(mix.fairness(), 3)});
    }
    table.addRow({"geomean (compl.)", "", "",
                  fmt(geomean(spatial_speedups), 3),
                  fmt(geomean(mixed_speedups), 3), "", "", "", "", "",
                  ""});
    std::printf("%s\n", table.toText().c_str());
    std::printf("Reading: mixing pays off when the pair is limited by\n"
                "different resources (memory kernel + smem/SFU kernel);\n"
                "pairing two register/thread-limited kernels shrinks the\n"
                "compute kernel's occupancy and loses to sequential;\n"
                "max-slowdown and min-max fairness expose the starved\n"
                "partner that ANTT's mean averages away.\n");

    report.addMetric("geomean.speedup_spatial", geomean(spatial_speedups));
    report.addMetric("geomean.speedup_mixed", geomean(mixed_speedups));
    bench::writeReport(opts, report);
    bench::writeRunArtifacts(opts, config, makeWorkload("kmeans"),
                              "kmeans/base");
    return 0;
}
