/**
 * @file
 * paper_sweep: the (config, kernel) points the paper figures E3
 * (fig_cta_sensitivity), E6 (fig_lcs_speedup), E7 (tab_lcs_accuracy)
 * and E12 (fig_combined) declare, concatenated in figure order with
 * their duplicates kept, and run as one closed batch on the parallel
 * harness. Duplicates are the static-limit sweeps E3, E6 and E7 share
 * and the baseline/LCS points E6, E7 and E12 share.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "bench.hh"
#include "gpu/gpu.hh"
#include "harness/parallel_runner.hh"
#include "kernel/occupancy.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace bsched;

/**
 * The suite cut that fits one run: compute-bound kernels (lud, lavamd,
 * phased) and a memory-bound one (nn), about 20 host CPU-seconds. The
 * other kernels are left out for host cost only (sc alone would add 17).
 */
const std::vector<std::string> kDefaultKernels = {"lud", "lavamd", "nn",
                                                  "phased"};

/** The workloads tab_lcs_accuracy (E7) declares. */
const std::vector<std::string> kE7Kernels = {
    "kmeans", "sc", "srad", "pf", "bfs", "lavamd", "bp", "gemm"};

/** One declared simulation point. */
struct Decl
{
    std::string id;  ///< figure/kernel/variant
    std::string key; ///< everything that varies between points
    GpuConfig config;
    std::string kernel;
};

std::vector<Decl>
declarePoints(const std::vector<std::string>& kernels)
{
    std::vector<Decl> out;
    std::map<std::string, std::uint32_t> n_max;
    const GpuConfig base =
        makeConfig(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    for (const std::string& k : kernels)
        n_max[k] = maxCtasPerCore(base, makeWorkload(k));

    auto add = [&](const std::string& id, const std::string& k,
                   WarpSchedKind warp, CtaSchedKind cta,
                   std::uint32_t limit) {
        GpuConfig config = makeConfig(warp, cta);
        config.staticCtaLimit = limit;
        out.push_back({id, k + "|" + toString(warp) + "|" + toString(cta) +
                               "|" + std::to_string(limit),
                       config, k});
    };
    auto sweep = [&](const std::string& fig, const std::string& k) {
        for (std::uint32_t n = 1; n <= n_max[k]; ++n) {
            add(fig + "/" + k + "/n" + std::to_string(n), k,
                WarpSchedKind::GTO, CtaSchedKind::RoundRobin, n);
        }
    };
    auto variant = [&](const std::string& fig, const std::string& k,
                       const char* label, WarpSchedKind warp,
                       CtaSchedKind cta) {
        add(fig + "/" + k + "/" + label, k, warp, cta, 0);
    };

    for (const std::string& k : kernels)
        sweep("E3", k);
    for (const std::string& k : kernels) {
        variant("E6", k, "base", WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
        variant("E6", k, "lcs", WarpSchedKind::GTO, CtaSchedKind::Lazy);
    }
    for (const std::string& k : kernels)
        sweep("E6", k);
    for (const std::string& k : kernels) {
        if (std::find(kE7Kernels.begin(), kE7Kernels.end(), k) ==
            kE7Kernels.end()) {
            continue;
        }
        variant("E7", k, "lcs", WarpSchedKind::GTO, CtaSchedKind::Lazy);
        sweep("E7", k);
    }
    for (const std::string& k : kernels) {
        variant("E12", k, "base", WarpSchedKind::GTO,
                CtaSchedKind::RoundRobin);
        variant("E12", k, "lcs", WarpSchedKind::GTO, CtaSchedKind::Lazy);
        variant("E12", k, "bcs+baws", WarpSchedKind::BAWS,
                CtaSchedKind::Block);
        variant("E12", k, "lcs+bcs+baws", WarpSchedKind::BAWS,
                CtaSchedKind::LazyBlock);
    }
    return out;
}

/** Every point's inputs, with one makeWorkload per kernel as the figures do. */
std::vector<SimPoint>
buildPoints(const std::vector<Decl>& decls)
{
    std::map<std::string, KernelInfo> built;
    for (const Decl& d : decls) {
        if (built.count(d.kernel) == 0) {
            ScopedSpan span("workloads.makeWorkload");
            built.emplace(d.kernel, makeWorkload(d.kernel));
        }
    }
    std::vector<SimPoint> points;
    points.reserve(decls.size());
    for (const Decl& d : decls)
        points.push_back({d.config, built.at(d.kernel), d.id});
    return points;
}

/** runKernel with a span per layer call and every step timed. */
RunResult
tracedPoint(const SimPoint& point, std::int64_t id, StepTimes& steps)
{
    std::unique_ptr<Gpu> gpu;
    {
        ScopedSpan span("gpu.setup", id);
        gpu = std::make_unique<Gpu>(point.config);
        gpu->launchKernel(point.kernel);
    }
    {
        ScopedSpan span("gpu.run", id);
        timedRun(*gpu, steps);
    }
    return resultOf(*gpu);
}

} // namespace

unsigned
sweepJobs()
{
    return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

Report
runPaperSweep(const Options& opts, Expectations& expect)
{
    Report report;
    const std::vector<std::string>& kernels =
        opts.kernels.empty() ? kDefaultKernels : opts.kernels;
    const unsigned jobs = sweepJobs();
    expect.load(opts.expectedDir, "paper_sweep.txt");

    const std::vector<Decl> decls = declarePoints(kernels);
    // Set-up: the points' inputs and the Gpu each point constructs. The
    // measured run below pays for those Gpus inside runGrid, not here.
    report.setupS = timeSetUp([&] {
        const std::vector<SimPoint> points = buildPoints(decls);
        for (std::size_t i = 0; i < points.size(); ++i) {
            ScopedSpan span("gpu.setup", static_cast<std::int64_t>(i));
            Gpu gpu(points[i].config);
            gpu.launchKernel(points[i].kernel);
        }
    });

    // The measured workload: build the points, run them as one grid.
    const double t0 = now();
    const std::vector<SimPoint> points = buildPoints(decls);
    std::vector<RunResult> results;
    std::vector<StepTimes> steps(points.size());
    double grid_s = 0.0;
    if (!opts.trace) {
        results = runGrid(points, jobs);
    } else {
        const double g0 = now();
        ScopedSpan grid("harness.grid");
        results = ParallelRunner(jobs).map<RunResult>(
            points.size(), [&](std::size_t i) {
                const auto id = static_cast<std::int64_t>(i);
                ScopedSpan span("harness.point", id, grid.index());
                return tracedPoint(points[i], id, steps[i]);
            });
        grid_s = now() - g0;
    }
    report.wallS = now() - t0;

    // Output check: every point against its committed result, and every
    // repeated point against its first occurrence.
    std::map<std::string, std::size_t> first;
    std::map<std::string, const RunResult*> by_id;
    for (std::size_t i = 0; i < decls.size(); ++i) {
        const std::string text = resultText(results[i]);
        const auto [it, fresh] = first.emplace(decls[i].key, i);
        const bool same_as_first =
            fresh || resultText(results[it->second]) == text;
        if (!same_as_first) {
            std::fprintf(stderr, "check failed: %s differs from %s\n",
                         decls[i].id.c_str(), decls[it->second].id.c_str());
        }
        expect.tally(expect.matches(decls[i].id, text) && same_as_first);
        report.simCycles += static_cast<double>(results[i].cycles);
        report.simInstrs += static_cast<double>(results[i].instrs);
        by_id[decls[i].id] = &results[i];
    }

    std::vector<double> speedups;
    for (const std::string& k : kernels) {
        speedups.push_back(by_id.at("E6/" + k + "/lcs")->ipc /
                           by_id.at("E6/" + k + "/base")->ipc);
    }
    report.exact["lcs_speedup_geomean"] = geomean(speedups);
    report.exact["points"] = static_cast<double>(decls.size());

    if (!opts.trace)
        return report;

    auto& layers = report.layers;
    layers["harness.points_requested"] = static_cast<double>(decls.size());
    layers["harness.points_distinct"] = static_cast<double>(first.size());
    layers["harness.useful_ratio"] =
        static_cast<double>(first.size()) / static_cast<double>(decls.size());
    report.samples["harness.point_s"] = spanDurations("harness.point");
    double busy = 0.0;
    for (const double s : report.samples["harness.point_s"])
        busy += s;
    layers["harness.worker_busy_share"] =
        busy / (grid_s * std::min<double>(jobs, points.size()));
    layers["workloads.build_us"] =
        1e6 * median(spanDurations("workloads.makeWorkload"));
    layers["gpu.setup_us"] = 1e6 * median(spanDurations("gpu.setup"));
    layers["gpu.stats_us"] = 1e6 * median(spanDurations("gpu.stats"));

    StepTimes total;
    SimCounters counters;
    for (std::size_t i = 0; i < results.size(); ++i) {
        total.merge(steps[i]);
        counters.add(results[i].stats);
    }
    total.emit(layers);
    counters.emit(layers);

    std::vector<KernelInfo> probe_kernels;
    for (const std::string& k : kernels)
        probe_kernels.push_back(makeWorkload(k));
    runProbes(probe_kernels, report);
    return report;
}

} // namespace perfbench
