#include "gpu/multi_kernel.hh"

#include <algorithm>

#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

const char*
toString(MultiKernelPolicy policy)
{
    switch (policy) {
      case MultiKernelPolicy::Sequential: return "sequential";
      case MultiKernelPolicy::Spatial: return "spatial";
      case MultiKernelPolicy::Mixed: return "mixed";
    }
    return "?";
}

double
MultiKernelReport::stp() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        sum += static_cast<double>(isolatedCycles[i]) /
            static_cast<double>(sharedCycles[i]);
    }
    return sum;
}

double
MultiKernelReport::antt() const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        sum += static_cast<double>(sharedCycles[i]) /
            static_cast<double>(isolatedCycles[i]);
    }
    return sum / static_cast<double>(sharedCycles.size());
}

double
MultiKernelReport::maxSlowdown() const
{
    double worst = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        worst = std::max(worst, static_cast<double>(sharedCycles[i]) /
                                    static_cast<double>(isolatedCycles[i]));
    }
    return worst;
}

double
MultiKernelReport::fairness() const
{
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < sharedCycles.size(); ++i) {
        const double speedup = static_cast<double>(isolatedCycles[i]) /
            static_cast<double>(sharedCycles[i]);
        if (i == 0) {
            lo = hi = speedup;
        } else {
            lo = std::min(lo, speedup);
            hi = std::max(hi, speedup);
        }
    }
    if (hi <= 0.0)
        fatal("MultiKernelReport::fairness: non-positive speedups");
    return lo / hi;
}

namespace {

Cycle
isolatedRun(const GpuConfig& config, const KernelInfo& kernel)
{
    Gpu gpu(config);
    const int id = gpu.launchKernel(kernel);
    gpu.run();
    return gpu.kernelCycles(id);
}

} // namespace

MultiKernelReport
runMultiKernel(const GpuConfig& config,
               const std::vector<const KernelInfo*>& kernels,
               MultiKernelPolicy policy, std::vector<int> spatial_split,
               const std::vector<Cycle>* isolated_cycles)
{
    if (kernels.empty())
        fatal("runMultiKernel: no kernels");

    MultiKernelReport report;
    report.policy = policy;
    if (isolated_cycles) {
        if (isolated_cycles->size() != kernels.size())
            fatal("runMultiKernel: isolated_cycles size mismatch");
        // A zero baseline means the caller recorded a run that never
        // executed; ANTT and slowdown would then divide by it.
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const Cycle cycles = (*isolated_cycles)[i];
            BSCHED_CHECK(cycles > 0, "runMultiKernel: zero isolated "
                         "cycles for kernel ", i);
            if (cycles == 0)
                fatal("runMultiKernel: zero isolated cycles for kernel ", i);
        }
        report.isolatedCycles = *isolated_cycles;
    } else {
        for (const KernelInfo* kernel : kernels)
            report.isolatedCycles.push_back(isolatedRun(config, *kernel));
    }

    switch (policy) {
      case MultiKernelPolicy::Sequential: {
        Gpu gpu(config);
        std::vector<int> ids;
        for (const KernelInfo* kernel : kernels) {
            ids.push_back(gpu.launchKernel(*kernel));
            gpu.run();
        }
        for (int id : ids)
            report.sharedCycles.push_back(gpu.kernelCycles(id));
        report.totalCycles = gpu.cycle();
        report.stats = gpu.stats();
        break;
      }
      case MultiKernelPolicy::Spatial: {
        const int cores = static_cast<int>(config.numCores);
        const int n = static_cast<int>(kernels.size());
        if (spatial_split.empty()) {
            for (int i = 1; i < n; ++i)
                spatial_split.push_back(cores * i / n);
        }
        if (static_cast<int>(spatial_split.size()) != n - 1)
            fatal("runMultiKernel: need ", n - 1, " split points");
        Gpu gpu(config);
        std::vector<int> ids;
        for (int i = 0; i < n; ++i) {
            const int begin = i == 0 ? 0 : spatial_split[i - 1];
            const int end = i == n - 1 ? cores : spatial_split[i];
            if (begin >= end)
                fatal("runMultiKernel: empty core range for kernel ", i);
            ids.push_back(gpu.launchKernel(*kernels[i], begin, end));
        }
        gpu.run();
        for (int id : ids)
            report.sharedCycles.push_back(gpu.kernelCycles(id));
        report.totalCycles = gpu.cycle();
        report.stats = gpu.stats();
        break;
      }
      case MultiKernelPolicy::Mixed: {
        // MCK relies on LCS per-core limits to carve out space for the
        // partner kernel on every core.
        GpuConfig mixed = config;
        if (mixed.ctaSched == CtaSchedKind::RoundRobin)
            mixed.ctaSched = CtaSchedKind::Lazy;
        else if (mixed.ctaSched == CtaSchedKind::Block)
            mixed.ctaSched = CtaSchedKind::LazyBlock;
        Gpu gpu(mixed);
        std::vector<int> ids;
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            ids.push_back(gpu.launchKernel(*kernels[i], 0, -1,
                                           static_cast<int>(i)));
        }
        gpu.run();
        for (int id : ids)
            report.sharedCycles.push_back(gpu.kernelCycles(id));
        report.totalCycles = gpu.cycle();
        report.stats = gpu.stats();
        break;
      }
    }
    return report;
}

} // namespace bsched
