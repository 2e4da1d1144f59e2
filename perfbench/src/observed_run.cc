/**
 * @file
 * observed_run: single-kernel GTO+LCS runs, one after another on one
 * thread, each with every observer attached (Tracer + IntervalSampler,
 * CycleProfiler, MemProfiler, PhaseTelemetry) and every artifact written
 * to the output directory, as a `--trace --profile --mem-profile
 * --phase` figure run does. The plain runs that check the observed
 * results run after the timed part.
 */

#include <filesystem>
#include <memory>

#include "bench.hh"
#include "gpu/gpu.hh"
#include "obs/json.hh"
#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"
#include "obs/trace.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace bsched;

const std::vector<std::string> kKernels = {"phased", "kmeans", "sc"};

/** Sampler period of a figure's --trace run. */
constexpr Cycle kSamplePeriod = 512;

GpuConfig
machine()
{
    return makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);
}

/** Every observer a fully observed figure run attaches. */
struct Observers
{
    Tracer tracer{machine().numCores, machine().numMemPartitions};
    IntervalSampler sampler{kSamplePeriod};
    CycleProfiler profiler;
    MemProfiler memProfiler;
    PhaseTelemetry phase;

    Observer hooks()
    {
        Observer obs;
        obs.tracer = &tracer;
        obs.sampler = &sampler;
        obs.profiler = &profiler;
        obs.memProfiler = &memProfiler;
        obs.phase = &phase;
        return obs;
    }
};

/** One observed kernel run, ready to write its artifacts. */
struct Observed
{
    KernelInfo kernel;
    std::unique_ptr<Observers> obs;
    std::unique_ptr<Gpu> gpu;
};

Observed
attach(const std::string& name, std::int64_t id)
{
    Observed run;
    {
        ScopedSpan span("workloads.makeWorkload", id);
        run.kernel = makeWorkload(name);
    }
    ScopedSpan span("obs.attach", id);
    run.obs = std::make_unique<Observers>();
    run.gpu = std::make_unique<Gpu>(machine(), run.obs->hooks());
    run.gpu->launchKernel(run.kernel);
    return run;
}

/** One artifact of a run: file suffix, schema, span name, writer. */
struct Artifact
{
    const char* suffix;
    const char* schema;
    const char* span;
    void (*write)(std::ostream& os, const Observers& o,
                  const RunResult& result, const std::string& label);
};

const Artifact kArtifacts[] = {
    {"trace.json", "bsched-trace-v1", "obs.write_trace",
     [](std::ostream& os, const Observers& o, const RunResult&,
        const std::string&) { o.tracer.writeChromeTrace(os, &o.sampler); }},
    {"series.json", "bsched-run-v1", "obs.write_series",
     [](std::ostream& os, const Observers& o, const RunResult& result,
        const std::string& label) {
         writeRunJson(os, result, label, &o.sampler);
     }},
    {"profile.json", "bsched-profile-v1", "obs.write_profile",
     [](std::ostream& os, const Observers& o, const RunResult&,
        const std::string& label) { writeProfileJson(os, o.profiler, label); }},
    {"memprofile.json", "bsched-memprofile-v1", "obs.write_memprofile",
     [](std::ostream& os, const Observers& o, const RunResult&,
        const std::string& label) {
         writeMemProfileJson(os, o.memProfiler, label);
     }},
    {"phase.json", "bsched-phase-v1", "obs.write_phase",
     [](std::ostream& os, const Observers& o, const RunResult&,
        const std::string& label) { writePhaseJson(os, o.phase, label); }},
};

/** The schema string an artifact declares, "" if it has none. */
std::string
schemaOf(const std::string& path)
{
    const JsonValue doc = parseJsonFile(path);
    const JsonValue& holder = doc.has("otherData") ? doc.at("otherData") : doc;
    return holder.has("schema") ? holder.at("schema").asString() : "";
}

} // namespace

Report
runObservedRun(const Options& opts, Expectations& expect)
{
    Report report;
    expect.load(opts.expectedDir, "observed_run.txt");
    const std::string dir = opts.outDir + "/observed_run";
    std::filesystem::create_directories(dir);

    report.setupS = timeSetUp([] {
        for (std::size_t i = 0; i < kKernels.size(); ++i)
            attach(kKernels[i], static_cast<std::int64_t>(i));
    });

    // The measured workload: attach, run, write every artifact.
    std::vector<RunResult> observed;
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;
    const double t0 = now();
    for (std::size_t i = 0; i < kKernels.size(); ++i) {
        const auto id = static_cast<std::int64_t>(i);
        Observed run = attach(kKernels[i], id);
        {
            ScopedSpan span("gpu.run", id);
            run.gpu->run();
        }
        const RunResult result = resultOf(*run.gpu);
        const std::string label = kKernels[i] + "/lcs";
        for (const Artifact& a : kArtifacts) {
            ScopedSpan span(a.span, id);
            bytes += writeFile(dir + "/" + kKernels[i] + "." + a.suffix,
                               [&](std::ostream& os) {
                                   a.write(os, *run.obs, result, label);
                               });
        }
        events += run.obs->tracer.recorded();
        observed.push_back(result);
    }
    report.wallS = now() - t0;

    // Output check: the observed result equals the plain run's and the
    // committed one, and every artifact parses with its schema.
    SimCounters counters;
    for (std::size_t i = 0; i < kKernels.size(); ++i) {
        const auto id = static_cast<std::int64_t>(i);
        // runKernel, with the span around the run alone so it pairs with
        // the observed run's gpu.run span.
        const KernelInfo kernel = makeWorkload(kKernels[i]);
        Gpu gpu(machine());
        gpu.launchKernel(kernel);
        {
            ScopedSpan span("gpu.plain_run", id);
            gpu.run();
        }
        const RunResult plain = resultOf(gpu);
        const std::string text = resultText(observed[i]);
        const bool same = text == resultText(plain);
        if (!same)
            std::fprintf(stderr, "check failed: %s observed != plain\n",
                         kKernels[i].c_str());
        expect.tally(expect.matches(kKernels[i] + "/lcs", text) && same);
        for (const Artifact& a : kArtifacts) {
            const std::string path = dir + "/" + kKernels[i] + "." + a.suffix;
            const bool ok = schemaOf(path) == a.schema;
            if (!ok)
                std::fprintf(stderr, "check failed: %s schema\n", path.c_str());
            expect.tally(ok);
        }
        report.simCycles += static_cast<double>(observed[i].cycles);
        report.simInstrs += static_cast<double>(observed[i].instrs);
        counters.add(observed[i].stats);
    }

    if (!opts.trace)
        return report;

    auto& layers = report.layers;
    auto total = [](const std::vector<double>& values) {
        double sum = 0.0;
        for (const double v : values)
            sum += v;
        return sum;
    };
    layers["obs.attach_ms"] = 1e3 * median(spanDurations("obs.attach"));
    layers["obs.run_overhead"] = total(spanDurations("gpu.run")) /
        total(spanDurations("gpu.plain_run"));
    layers["obs.trace_events"] = static_cast<double>(events);
    for (const Artifact& a : kArtifacts) {
        layers[std::string(a.span) + "_ms"] =
            1e3 * total(spanDurations(a.span));
    }
    layers["obs.bytes_written"] = static_cast<double>(bytes);
    layers["workloads.build_us"] =
        1e6 * median(spanDurations("workloads.makeWorkload"));
    layers["gpu.stats_us"] = 1e6 * median(spanDurations("gpu.stats"));
    counters.emit(layers);

    std::vector<KernelInfo> probe_kernels;
    for (const std::string& k : kKernels)
        probe_kernels.push_back(makeWorkload(k));
    runProbes(probe_kernels, report);
    return report;
}

} // namespace perfbench
