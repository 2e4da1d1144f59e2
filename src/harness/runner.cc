#include "harness/runner.hh"

#include "harness/parallel_runner.hh"
#include "kernel/occupancy.hh"
#include "workloads/suite.hh"

namespace bsched {

namespace {

double
missRate(const StatSet& stats, const std::string& access_suffix,
         const std::string& miss_suffix)
{
    const double access = stats.sumBySuffix(access_suffix);
    const double miss = stats.sumBySuffix(miss_suffix);
    return access > 0.0 ? miss / access : 0.0;
}

} // namespace

double
RunResult::l1MissRate() const
{
    return missRate(stats, ".l1d.access", ".l1d.miss");
}

double
RunResult::l2MissRate() const
{
    return missRate(stats, ".l2.access", ".l2.miss");
}

double
RunResult::dramRowHitRate() const
{
    const double hits = stats.sumBySuffix(".dram.row_hit");
    const double total = hits + stats.sumBySuffix(".dram.row_miss");
    return total > 0.0 ? hits / total : 0.0;
}

RunResult
runKernel(const GpuConfig& config, const KernelInfo& kernel)
{
    return runKernel(config, kernel, Observer{});
}

RunResult
runKernel(const GpuConfig& config, const KernelInfo& kernel, Observer obs)
{
    Gpu gpu(config, obs);
    gpu.launchKernel(kernel);
    gpu.run();
    RunResult result;
    result.cycles = gpu.cycle();
    result.instrs = gpu.totalInstrsIssued();
    result.ipc = gpu.ipc();
    result.stats = gpu.stats();
    return result;
}

RunResult
runWorkload(const GpuConfig& config, const std::string& name)
{
    const KernelInfo kernel = makeWorkload(name);
    return runKernel(config, kernel);
}

std::vector<OracleResult>
oracleStaticBest(const GpuConfig& config,
                 const std::vector<KernelInfo>& kernels, unsigned jobs)
{
    std::vector<OracleResult> oracles(kernels.size());
    std::vector<SimPoint> points;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        oracles[k].maxLimit = maxCtasPerCore(config, kernels[k]);
        for (std::uint32_t limit = 1; limit <= oracles[k].maxLimit;
             ++limit) {
            GpuConfig limited = config;
            limited.staticCtaLimit = limit;
            points.push_back({limited, kernels[k],
                              kernels[k].name + "/limit" +
                                  std::to_string(limit)});
        }
    }
    const std::vector<RunResult> results = runGrid(points, jobs);

    auto next = results.begin();
    for (OracleResult& oracle : oracles) {
        oracle.byLimit.assign(next, next + oracle.maxLimit);
        next += oracle.maxLimit;
        oracle.bestLimit = 1;
        for (std::uint32_t limit = 2; limit <= oracle.maxLimit; ++limit) {
            if (oracle.byLimit[limit - 1].ipc >
                oracle.byLimit[oracle.bestLimit - 1].ipc) {
                oracle.bestLimit = limit;
            }
        }
    }
    return oracles;
}

GpuConfig
makeConfig(WarpSchedKind warp_sched, CtaSchedKind cta_sched)
{
    GpuConfig config = GpuConfig::gtx480();
    config.warpSched = warp_sched;
    config.ctaSched = cta_sched;
    return config;
}

} // namespace bsched
