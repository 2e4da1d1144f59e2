/**
 * @file
 * E17 — the figure that *explains* LCS: sweep the static per-core CTA
 * limit on the cache-sensitive workloads and watch the interference
 * mechanism directly with the request-level memory profiler. Past the
 * CTA count LCS converges to, the cross-CTA eviction rate (fills of one
 * CTA displacing another CTA's live lines in L1/L2, per kilocycle) keeps
 * climbing and the aggregate DRAM queueing grows — reported as the
 * time-weighted DRAM-queue occupancy, i.e. the mean number of requests
 * waiting at DRAM, which by Little's law is mean queue latency times
 * arrival rate — while the DRAM row-buffer hit rate falls. More
 * resident CTAs buy TLP that is immediately taxed back as cache thrash
 * and memory queueing, which is why fewer CTAs run faster.
 *
 * Reproduces: the resource-interference reading of the paper's
 * motivation (Section 3), in the spirit of the direct interference
 * measurements of Elvinger et al. and Jatala et al. (PAPERS.md).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "kernel/occupancy.hh"
#include "obs/mem_profile.hh"
#include "sim/log.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

namespace {

using namespace bsched;

/** One profiled sweep point: the run plus its memory profile. */
struct MemPoint
{
    RunResult result;
    std::shared_ptr<MemProfiler> prof; ///< shared: runner.map copies
};

double
meanOf(const LatencyHistogram& h)
{
    return h.mean();
}

/**
 * Run @p kernel at static CTA limit @p limit with a MemProfiler
 * attached and check the conservation laws before returning.
 */
MemPoint
profiledRun(GpuConfig config, const KernelInfo& kernel,
            std::uint32_t limit)
{
    config.staticCtaLimit = limit;
    MemPoint point;
    point.prof = std::make_shared<MemProfiler>();
    Observer obs;
    obs.memProfiler = point.prof.get();
    point.result = runKernel(config, kernel, obs);

    const MemProfiler& prof = *point.prof;
    if (prof.outstandingRequests() != 0 ||
        prof.begunRequests() != prof.completedRequests()) {
        fatal("fig_mem_interference: ", kernel.name, "/n", limit, ": ",
              prof.outstandingRequests(),
              " requests still outstanding after drain");
    }
    const StageProfile total = prof.total();
    if (total.stageCycleSum() != total.endToEnd.sum()) {
        fatal("fig_mem_interference: conservation violated for ",
              kernel.name, "/n", limit, ": stage cycles ",
              total.stageCycleSum(), " vs end-to-end ",
              total.endToEnd.sum());
    }
    if (total.completed() != prof.completedRequests()) {
        fatal("fig_mem_interference: histogram total ", total.completed(),
              " != completed requests ", prof.completedRequests());
    }
    return point;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const GpuConfig base = makeConfig(WarpSchedKind::GTO,
                                      CtaSchedKind::RoundRobin);

    // The cache-sensitive pair: srad is the Type-2 (increasing) kernel,
    // kmeans the Type-3 (peaked) one whose L1/L2 reuse the extra CTAs
    // visibly destroy — the workload where LCS's N_opt pick pays most.
    const std::vector<std::string> names = {"srad", "kmeans"};

    std::printf("E17: inter-CTA memory interference vs CTAs/core "
                "(GTO, RR CTA scheduler; %u jobs)\n\n",
                opts.jobs);

    std::vector<KernelInfo> kernels;
    std::vector<std::uint32_t> max_limits;
    for (const std::string& name : names) {
        kernels.push_back(makeWorkload(name));
        max_limits.push_back(maxCtasPerCore(base, kernels.back()));
    }
    const std::vector<std::uint32_t> lcs_limits =
        bench::lcsChosenLimits(base, kernels, opts.jobs);

    // Every (workload, limit) pair of every sweep, workload-major. The
    // points also keep their profilers alive for the artifact export.
    std::vector<std::pair<std::size_t, std::uint32_t>> pairs;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        for (std::uint32_t n = 1; n <= max_limits[k]; ++n)
            pairs.emplace_back(k, n);
    }
    const ParallelRunner runner(opts.jobs);
    const std::vector<MemPoint> sweeps =
        runner.map<MemPoint>(pairs.size(), [&](std::size_t i) {
            return profiledRun(base, kernels[pairs[i].first],
                               pairs[i].second);
        });

    BenchReport report("fig_mem_interference");
    std::vector<MemProfilePoint> artifact;
    auto sweep = sweeps.begin();
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const std::string& name = names[k];
        const KernelInfo& kernel = kernels[k];
        const std::uint32_t n_max = max_limits[k];
        const std::uint32_t n_lcs = lcs_limits[k];

        Table table(name + " (" + toString(kernel.typeClass) +
                    "): memory interference by CTA limit");
        table.setHeader({"N", "ipc", "l1_xcta/kc", "l2_xcta/kc",
                         "l2_xfrac", "dram_qocc", "dram_q", "e2e",
                         "rowhit", ""});
        for (std::uint32_t n = 1; n <= n_max; ++n) {
            const MemPoint& point = *sweep++;
            const MemProfiler& prof = *point.prof;
            const StageProfile total = prof.total();
            const double kilocycles =
                static_cast<double>(point.result.cycles) / 1000.0;
            // Cross-CTA eviction *rates* (per kilocycle): unlike the
            // eviction fraction these keep climbing with N even when
            // same-CTA capacity misses grow alongside.
            const double l1x_rate = static_cast<double>(
                prof.interference(MemLevel::L1).crossCtaEvictions) /
                kilocycles;
            const double l2x_rate = static_cast<double>(
                prof.interference(MemLevel::L2).crossCtaEvictions) /
                kilocycles;
            const double l2x_frac =
                prof.interference(MemLevel::L2).crossCtaFraction();
            const LatencyHistogram& dq_hist =
                total.stages[static_cast<std::size_t>(MemStage::DramQueue)];
            // Time-weighted DRAM-queue occupancy: total request-cycles
            // spent waiting in the DRAM queue per simulated cycle = the
            // mean number of waiting requests (Little's law: mean queue
            // latency x arrival rate). The per-request mean alone hides
            // the pressure once the request count explodes.
            const double dram_qocc = static_cast<double>(dq_hist.sum()) /
                static_cast<double>(point.result.cycles);
            const double dram_q = meanOf(dq_hist);
            const double e2e = meanOf(total.endToEnd);
            const double row_hit = point.result.dramRowHitRate();
            table.addRow({std::to_string(n), fmt(point.result.ipc, 2),
                          fmt(l1x_rate, 1), fmt(l2x_rate, 1),
                          fmt(l2x_frac, 3), fmt(dram_qocc, 1),
                          fmt(dram_q, 1), fmt(e2e, 1), fmt(row_hit, 3),
                          n == n_lcs ? "<- LCS N_opt" : ""});

            const std::string label = name + "/n" + std::to_string(n);
            report.addRow(label, point.result);
            report.addMetric(name + ".l1_cross_cta_rate.n" +
                             std::to_string(n), l1x_rate);
            report.addMetric(name + ".l2_cross_cta_rate.n" +
                             std::to_string(n), l2x_rate);
            report.addMetric(name + ".l2_cross_cta.n" + std::to_string(n),
                             l2x_frac);
            report.addMetric(name + ".dram_q_occupancy.n" +
                             std::to_string(n), dram_qocc);
            report.addMetric(name + ".dram_q_mean.n" + std::to_string(n),
                             dram_q);
            report.addMetric(name + ".row_hit_rate.n" + std::to_string(n),
                             row_hit);

            MemProfilePoint ap;
            ap.label = label;
            ap.params = {{"cta_limit", static_cast<double>(n)},
                         {"lcs_n_opt", static_cast<double>(n_lcs)},
                         {"ipc", point.result.ipc},
                         {"l1_cross_cta_rate", l1x_rate},
                         {"l2_cross_cta_rate", l2x_rate},
                         {"l2_cross_cta_fraction", l2x_frac},
                         {"dram_q_occupancy", dram_qocc},
                         {"dram_q_mean", dram_q},
                         {"row_hit_rate", row_hit}};
            ap.prof = point.prof.get();
            artifact.push_back(ap);
        }
        report.addMetric(name + ".n_max", n_max);
        report.addMetric(name + ".lcs_n_opt", n_lcs);
        std::printf("%s\n", table.toText().c_str());
    }

    std::printf("Reading: past the LCS pick the cross-CTA eviction rates "
                "keep rising and the DRAM queue keeps filling\n"
                "(dram_qocc = mean requests waiting at DRAM) while the "
                "row-buffer hit rate falls — extra CTAs evict\neach "
                "other's live lines, and the refetch traffic queues at "
                "DRAM. That interference is the mechanism\nthe N_opt "
                "occupancy cap removes.\n");

    bench::writeReport(opts, report);
    // The E17 memory profile is the full sweep, not one representative
    // run: every point of every workload in one `bsched-memprofile-v1`
    // file.
    bench::writeRunArtifacts(
        opts, base, makeWorkload("kmeans"), "kmeans/base",
        {{"memprofile.json", [&](std::ostream& os) {
              writeMemProfileJson(os, artifact, "fig_mem_interference");
          }}});
    return 0;
}
