/**
 * @file
 * serve_open: one thread serves one open-loop generateTrace() trace
 * under reorder+preempt on the GTO+LCS machine. Bursty, deadline-bound
 * latency tenants send short kernels; a Poisson batch tenant sends a
 * long memory-bound one. Each kernel has its own tenant so the trace's
 * kernel counts are fixed and the seed moves only arrival times: host
 * cost then varies little from seed to seed.
 */

#include <algorithm>
#include <sstream>

#include "bench.hh"
#include "gpu/gpu.hh"
#include "serve/engine.hh"
#include "serve/serve_trace.hh"
#include "serve/serving_report.hh"
#include "serve/traffic.hh"
#include "workloads/suite.hh"

namespace perfbench {

namespace {

using namespace bsched;

/** Mirrors the serving engine's launch priority for admitted kernels. */
constexpr int kNormalPriorityBase = 100000;

TrafficSpec
makeSpec(std::uint64_t seed)
{
    TrafficSpec spec;
    spec.seed = seed;
    // Offered load stays below what the GPU serves: it is busy about 60%
    // of the makespan, so queues drain between bursts, the idle gaps
    // are fast-forwarded, and latency does not grow with trace length.
    // lud is a periodic stream (one burst of 128, 18k cycles apart, a
    // lud run takes 8k), so the makespan is nearly the same for every
    // seed. The seed moves the tight bursts of 4 nw and lavamd, pf and
    // the batch kernel, which arrive early enough that they almost never
    // set the makespan; how they collide sets preemptions and misses.
    struct Latency
    {
        const char* kernel;
        std::uint32_t requests;
        std::uint32_t burstLen;
        std::uint64_t intraBurstGap;
        std::uint64_t meanGap;
    };
    const Latency latency[] = {{"lud", 128, 128, 18000, 5000},
                               {"nw", 12, 4, 1000, 250000},
                               {"lavamd", 12, 4, 1000, 250000},
                               {"pf", 2, 2, 1000, 400000}};
    for (const Latency& l : latency) {
        TenantSpec t;
        t.process = ArrivalProcess::Bursty;
        t.mix = {l.kernel};
        t.requests = l.requests;
        t.burstLen = l.burstLen;
        t.intraBurstGapCycles = l.intraBurstGap;
        t.meanGapCycles = l.meanGap;
        t.deadlineSlack = 150000;
        spec.tenants.push_back(t);
    }
    // One long memory-bound batch kernel; bfs and bp, each one to three
    // times mummer's length, are left out for host cost.
    TenantSpec batch;
    batch.process = ArrivalProcess::Poisson;
    batch.mix = {"mummer"};
    batch.requests = 1;
    batch.meanGapCycles = 400000;
    spec.tenants.push_back(batch);
    return spec;
}

GpuConfig
machine()
{
    return makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);
}

ServeConfig
policy()
{
    ServeConfig serve;
    serve.policy = ServePolicy::ReorderPreempt;
    return serve;
}

/** Everything the engine builds before its first cycle. */
void
setUp(std::uint64_t seed)
{
    std::vector<LaunchRequest> trace;
    {
        ScopedSpan span("serve.generateTrace");
        trace = generateTrace(makeSpec(seed));
    }
    std::map<std::string, KernelInfo> pool;
    for (const LaunchRequest& req : trace) {
        if (pool.count(req.workload) == 0) {
            ScopedSpan span("workloads.makeWorkload");
            pool.emplace(req.workload, makeWorkload(req.workload));
        }
    }
    {
        ScopedSpan span("serve.engine_ctor");
        ServingEngine engine(machine(), policy());
    }
    ScopedSpan span("gpu.setup");
    Gpu gpu(machine());
}

/** Short digest of one request's served lifecycle. */
std::string
outcomeDigest(const RequestOutcome& o)
{
    StatSet s;
    s.set("seq", static_cast<double>(o.req.seq));
    s.set("tenant", o.req.tenant);
    s.set("release", static_cast<double>(o.release));
    s.set("admit", static_cast<double>(o.admit));
    s.set("first", static_cast<double>(o.firstDispatch));
    s.set("finish", static_cast<double>(o.finish));
    s.set("kernel", o.kernelId);
    return statsDigest(s).substr(0, 8) + ":" + o.req.workload;
}

/** Lifecycle invariants every served request must satisfy. */
bool
wellFormed(const RequestOutcome& o)
{
    return o.finish != kCycleNever && o.release == o.req.arrival &&
        o.release <= o.admit && o.admit <= o.firstDispatch &&
        o.firstDispatch <= o.finish;
}

/**
 * Drive a fresh Gpu through the schedule the engine served: launch each
 * kernel at its admission cycle with the engine's priority, drain each
 * preemption victim as its preemptor launches and lift the drain when
 * the preemptor finishes, and fence fast-forward at every arrival as
 * the engine does. Every step is timed. Returns false unless each
 * kernel finishes exactly where the engine reported it.
 */
bool
replay(const std::vector<RequestOutcome>& outcomes, const ServeAudit& audit,
       StepTimes& steps, StatSet& stats)
{
    const std::size_t n = outcomes.size();
    std::map<std::string, KernelInfo> pool;
    std::vector<const RequestOutcome*> by_kernel(n);
    std::vector<Cycle> releases;
    for (const RequestOutcome& o : outcomes) {
        pool.emplace(o.req.workload, makeWorkload(o.req.workload));
        by_kernel.at(static_cast<std::size_t>(o.kernelId)) = &o;
        releases.push_back(o.release);
    }
    std::sort(releases.begin(), releases.end());
    // Preemptor seq -> every kernel it drained.
    std::map<std::uint64_t, std::vector<int>> victims_of;
    for (const ServeDecision& d : audit.decisions) {
        if (d.kind == ServeDecisionKind::Preempt)
            victims_of[d.seq].push_back(d.victim);
    }

    Gpu gpu(machine());
    std::vector<std::vector<int>> victims(n);
    std::vector<char> done(n, 0);
    std::size_t launched = 0;
    std::size_t remaining = n;
    for (;;) {
        const Cycle now = gpu.cycle();
        for (std::size_t id = 0; id < launched; ++id) {
            if (done[id] || !gpu.kernel(static_cast<int>(id)).finished())
                continue;
            done[id] = 1;
            --remaining;
            for (const int v : victims[id]) {
                if (!gpu.kernel(v).finished() && gpu.kernelDraining(v))
                    gpu.requestDrain(v, false);
            }
        }
        while (launched < n && by_kernel[launched]->admit == now) {
            const RequestOutcome& o = *by_kernel[launched];
            const auto it = victims_of.find(o.req.seq);
            const bool preemptor = it != victims_of.end();
            if (preemptor) {
                victims[launched] = it->second;
                for (const int v : it->second)
                    gpu.requestDrain(v, true);
            }
            const int prio = static_cast<int>(launched) +
                (preemptor ? 0 : kNormalPriorityBase);
            gpu.launchKernel(pool.at(o.req.workload), 0, -1, prio);
            ++launched;
        }
        if (remaining == 0)
            break;
        const auto next =
            std::upper_bound(releases.begin(), releases.end(), now);
        gpu.setExternalEventCycle(next == releases.end() ? kCycleNever
                                                         : *next);
        timedStep(gpu, steps);
    }
    steps.cycles += static_cast<double>(gpu.cycle());
    steps.elided += static_cast<double>(gpu.elidedCycles());
    {
        ScopedSpan span("gpu.stats");
        stats = gpu.stats();
    }

    bool exact = true;
    for (const RequestOutcome& o : outcomes) {
        const KernelInstance& k = gpu.kernel(o.kernelId);
        exact = exact && k.doneCycle == o.finish &&
            k.firstDispatchCycle == o.firstDispatch;
    }
    return exact;
}

} // namespace

Report
runServeOpen(const Options& opts, Expectations& expect)
{
    Report report;
    expect.load(opts.expectedDir, "serve_open.txt");

    report.setupS = timeSetUp([&] { setUp(opts.seed); });

    // The measured workload: generate the trace, serve it.
    const double t0 = now();
    std::vector<LaunchRequest> trace;
    {
        ScopedSpan span("serve.generateTrace");
        trace = generateTrace(makeSpec(opts.seed));
    }
    ServeTrace audit;
    ServingEngine engine(machine(), policy());
    if (opts.trace)
        engine.setTrace(&audit);
    ServingRunResult result;
    {
        ScopedSpan span("serve.run");
        result = engine.run(trace);
    }
    report.wallS = now() - t0;

    // Output check: lifecycle invariants always, and the committed
    // per-request digests where this seed has them.
    const std::string id = "seed" + std::to_string(opts.seed);
    std::string got;
    for (const RequestOutcome& o : result.outcomes)
        got += outcomeDigest(o) + " ";
    got += statsDigest(result.stats);
    expect.record(id, got);
    const std::string* want = expect.lookup(id);
    std::istringstream want_tokens(want != nullptr ? *want : "");
    std::istringstream got_tokens(got);
    std::string w;
    std::string g;
    for (std::size_t i = 0; i <= result.outcomes.size(); ++i) {
        got_tokens >> g;
        const bool matched = want == nullptr || (want_tokens >> w && w == g);
        const bool ok = matched &&
            (i == result.outcomes.size() || wellFormed(result.outcomes[i]));
        if (!ok)
            std::fprintf(stderr, "check failed: %s item %zu\n", id.c_str(), i);
        expect.tally(ok);
    }
    if (want == nullptr) {
        std::fprintf(stderr, "serve_open: no committed results for seed "
                             "%llu; lifecycle invariants checked only\n",
                     static_cast<unsigned long long>(opts.seed));
    }

    std::map<std::string, Cycle> isolated;
    std::uint64_t deadlines = 0;
    std::uint64_t misses = 0;
    std::map<std::string, double> instrs_of;
    for (const RequestOutcome& o : result.outcomes) {
        if (instrs_of.count(o.req.workload) == 0) {
            instrs_of[o.req.workload] = static_cast<double>(
                makeWorkload(o.req.workload).totalDynamicInstrs());
        }
        report.simInstrs += instrs_of[o.req.workload];
        report.samples["latency_cycles"].push_back(
            static_cast<double>(o.latency()));
        deadlines += o.deadline != kCycleNever;
        misses += o.missedDeadline();
        const Cycle run = o.finish - o.admit;
        auto [it, fresh] = isolated.emplace(o.req.workload, run);
        if (!fresh)
            it->second = std::min(it->second, run);
    }
    report.simCycles = static_cast<double>(result.totalCycles);
    report.exact["deadline_miss_rate"] =
        deadlines > 0 ? static_cast<double>(misses) / deadlines : 0.0;
    report.exact["throughput_per_mcycle"] =
        1e6 * static_cast<double>(result.outcomes.size()) /
        static_cast<double>(result.totalCycles);
    report.exact["requests"] = static_cast<double>(result.outcomes.size());

    if (!opts.trace)
        return report;

    auto& layers = report.layers;
    const double run_s = median(spanDurations("serve.run"));
    layers["serve.run_s"] = run_s;
    layers["serve.host_ns_per_sim_cycle"] =
        1e9 * run_s / static_cast<double>(result.totalCycles);
    layers["serve.trace_gen_us"] =
        1e6 * median(spanDurations("serve.generateTrace"));
    {
        // The ANTT denominators are each workload's fastest served run.
        ScopedSpan span("serve.summarize");
        summarizeServing(toString(policy().policy), "serve_open", result,
                         isolated);
    }
    layers["serve.summarize_us"] =
        1e6 * median(spanDurations("serve.summarize"));
    for (const char* counter : {"preemptions", "reorders",
                                "headroom_denials", "drain_latency_cycles"}) {
        const std::string name = std::string("serve.") + counter;
        layers[name] = result.stats.get(name);
    }
    layers["workloads.build_us"] =
        1e6 * median(spanDurations("workloads.makeWorkload"));
    layers["gpu.setup_us"] = 1e6 * median(spanDurations("gpu.setup"));

    StepTimes steps;
    StatSet stats;
    bool exact = false;
    {
        ScopedSpan span("gpu.replay");
        exact = replay(result.outcomes, audit.audit, steps, stats);
    }
    // A diagnostic, not a failed output: the served results are checked
    // above, and the replay only re-creates the schedule to time steps.
    if (!exact) {
        std::fprintf(stderr, "serve_open: %s replay diverged from the "
                             "served schedule; its gpu.* step metrics are "
                             "approximate\n",
                     id.c_str());
    }
    steps.emit(layers);
    layers["gpu.stats_us"] = 1e6 * median(spanDurations("gpu.stats"));
    SimCounters counters;
    counters.add(stats);
    counters.emit(layers);

    std::vector<KernelInfo> probe_kernels;
    for (const auto& [name, instrs] : instrs_of)
        probe_kernels.push_back(makeWorkload(name));
    runProbes(probe_kernels, report);
    return report;
}

} // namespace perfbench
