/**
 * @file
 * E18/E19 — kernel-launch serving: multi-tenant launch traces (Poisson,
 * bursty, closed-loop) served under the five serving policies —
 * Sequential and Spatial baselines, then shared-core FCFS, reordering
 * (SJF + deadline escalation) and reordering with CTA-drain
 * preemption.
 *
 * E18 reports throughput, p50/p99 launch-to-finish latency,
 * deadline-miss rate and per-tenant ANTT fairness per (trace, policy),
 * and emits the `bsched-serving-v1` artifact (--emit-json). E19 is the
 * decision audit behind the same 15 runs: every point carries a
 * ServeTrace bundle (pure observation), and the figure reports the
 * decision breakdown, the CTA-drain cost counters and the runtime
 * predictor's absolute error per point. `--artifacts DIR` writes the
 * full `bsched-servetrace-v1` audit as `servetrace.json` next to the
 * run artifacts. Both files are byte-identical for any --jobs and with
 * fast-forward on or off; bench/BENCH_serving.json and
 * bench/BENCH_servetrace.json are the committed baselines the
 * serving_gate ctest byte-gates against at --jobs 1, 2 and 4 and with
 * fast-forward off.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "gpu/gpu.hh"
#include "serve/engine.hh"
#include "serve/serve_trace.hh"
#include "serve/serving_report.hh"
#include "serve/traffic.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

namespace {

using namespace bsched;

/** A named serving scenario. */
struct TraceDef
{
    std::string name;
    TrafficSpec spec;
};

/** One audited (trace, policy) point. */
struct AuditedRun
{
    ServingRunResult result;
    ServeTrace trace;
};

/** The three serving scenarios. Gaps are tuned against the suite's
 *  isolated runtimes (about 8k cycles for lud up to 624k for bp) so
 *  queues actually form without the trace running away. */
std::vector<TraceDef>
makeServeTraces()
{
    std::vector<TraceDef> traces;

    // Steady mixed load: two open-loop tenants, no deadlines.
    {
        TrafficSpec spec;
        spec.seed = 11;
        TenantSpec t0;
        t0.process = ArrivalProcess::Poisson;
        t0.mix = {"kmeans", "sc", "gemm"};
        t0.requests = 8;
        t0.meanGapCycles = 200000;
        TenantSpec t1;
        t1.process = ArrivalProcess::Poisson;
        t1.mix = {"srad", "hs", "lavamd"};
        t1.requests = 8;
        t1.meanGapCycles = 200000;
        spec.tenants = {t0, t1};
        traces.push_back({"poisson_mix", spec});
    }

    // The preemption showcase: a latency tenant firing bursts of short
    // deadline-bound kernels into a batch tenant's long Type-1/3
    // kernels. FCFS strands the bursts behind a long resident pair;
    // reordering admits them first when a slot frees; drain preemption
    // makes room immediately.
    {
        TrafficSpec spec;
        spec.seed = 23;
        TenantSpec latency;
        latency.process = ArrivalProcess::Bursty;
        latency.mix = {"lud", "nw", "lavamd"};
        latency.requests = 12;
        latency.burstLen = 4;
        latency.meanGapCycles = 600000;
        latency.intraBurstGapCycles = 1000;
        latency.deadlineSlack = 150000;
        TenantSpec batch;
        batch.process = ArrivalProcess::Poisson;
        batch.mix = {"bp", "bfs"};
        batch.requests = 4;
        batch.meanGapCycles = 700000;
        spec.tenants = {latency, batch};
        traces.push_back({"bursty_mix", spec});
    }

    // Closed loops: a single-outstanding long-kernel tenant against a
    // depth-2 short-kernel tenant.
    {
        TrafficSpec spec;
        spec.seed = 37;
        TenantSpec t0;
        t0.process = ArrivalProcess::ClosedLoop;
        t0.mix = {"mummer"};
        t0.requests = 4;
        t0.closedDepth = 1;
        t0.meanGapCycles = 20000;
        TenantSpec t1;
        t1.process = ArrivalProcess::ClosedLoop;
        t1.mix = {"lud", "nw", "pf"};
        t1.requests = 10;
        t1.closedDepth = 2;
        t1.meanGapCycles = 10000;
        spec.tenants = {t0, t1};
        traces.push_back({"closed_pair", spec});
    }
    return traces;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace bsched;
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const unsigned jobs = opts.jobs;
    const GpuConfig config =
        makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);

    const std::vector<TraceDef> traces = makeServeTraces();
    const std::vector<ServePolicy> policies = allServePolicies();

    std::printf("E18: kernel-launch serving — traffic x policy\n"
                "(latencies in cycles, launch-to-finish; %u jobs)\n\n",
                jobs);

    const ParallelRunner runner(jobs);

    // Isolated full-machine runtimes (fairness denominators), computed
    // once per distinct workload.
    std::vector<std::string> uniq;
    for (const TraceDef& def : traces) {
        for (const TenantSpec& tenant : def.spec.tenants) {
            for (const std::string& name : tenant.mix) {
                if (std::find(uniq.begin(), uniq.end(), name) ==
                    uniq.end()) {
                    uniq.push_back(name);
                }
            }
        }
    }
    const auto iso_cycles =
        runner.map<Cycle>(uniq.size(), [&](std::size_t i) {
            const KernelInfo kernel = makeWorkload(uniq[i]);
            Gpu gpu(config);
            const int id = gpu.launchKernel(kernel);
            gpu.run();
            return gpu.kernelCycles(id);
        });
    std::map<std::string, Cycle> isolated;
    for (std::size_t i = 0; i < uniq.size(); ++i)
        isolated[uniq[i]] = iso_cycles[i];

    // One independent point per (trace, policy); each engine owns a
    // fresh GPU and kernel pool, and carries the E19 decision audit.
    const std::size_t points = traces.size() * policies.size();
    const auto results =
        runner.map<AuditedRun>(points, [&](std::size_t i) {
            const TraceDef& def = traces[i / policies.size()];
            ServeConfig serve;
            serve.policy = policies[i % policies.size()];
            AuditedRun run;
            ServingEngine engine(config, serve);
            engine.setTrace(&run.trace);
            run.result = engine.run(generateTrace(def.spec));
            return run;
        });

    ServingReport report("fig_serving");
    ServeTraceReport audit_report("fig_serving");
    Table table("serving policies");
    table.setHeader({"trace", "policy", "reqs", "thrpt/Mcyc", "p50",
                     "p99", "miss-rate", "fairness", "preempts"});
    Table decisions("serving decisions");
    decisions.setHeader({"trace", "policy", "admits", "defers",
                         "preempts", "cancels", "drains", "drain-lat",
                         "pred-err", "samples"});
    std::map<std::string, std::map<std::string, ServingSummary>> byTrace;
    for (std::size_t i = 0; i < points; ++i) {
        const TraceDef& def = traces[i / policies.size()];
        const ServePolicy policy = policies[i % policies.size()];
        const AuditedRun& run = results[i];
        const ServingSummary summary = summarizeServing(
            toString(policy), def.name, run.result, isolated);
        report.addRun(summary);
        byTrace[def.name][summary.policy] = summary;
        table.addRow({def.name, summary.policy,
                      std::to_string(summary.requests),
                      fmt(summary.throughput, 2),
                      std::to_string(static_cast<long long>(
                          summary.p50Latency)),
                      std::to_string(static_cast<long long>(
                          summary.p99Latency)),
                      fmt(summary.missRate, 3),
                      fmt(summary.fairness, 3),
                      std::to_string(summary.preemptions)});

        audit_report.addRun(toString(policy), def.name, run.result,
                            run.trace);
        const ServeAudit& audit = run.trace.audit;
        const PredictorAccuracy& acc = run.trace.accuracy;
        decisions.addRow({def.name, toString(policy),
                          std::to_string(audit.admits),
                          std::to_string(audit.defers),
                          std::to_string(audit.preempts),
                          std::to_string(audit.drainCancels),
                          std::to_string(run.result.drainsCompleted),
                          std::to_string(run.result.drainLatencyCycles),
                          fmt(acc.meanAbsError(), 0),
                          std::to_string(acc.samples())});
    }
    std::printf("%s\n", table.toText().c_str());

    // Headline: how much p99 latency the smarter policies claw back
    // from FCFS on the bursty deadline trace.
    for (const TraceDef& def : traces) {
        const auto& runs = byTrace.at(def.name);
        const ServingSummary& fcfs = runs.at("fcfs");
        const ServingSummary& reorder = runs.at("reorder");
        const ServingSummary& preempt = runs.at("reorder+preempt");
        if (fcfs.p99Latency > 0.0) {
            report.addMetric(def.name + ".p99_gain_reorder",
                             fcfs.p99Latency / reorder.p99Latency);
            report.addMetric(def.name + ".p99_gain_reorder_preempt",
                             fcfs.p99Latency / preempt.p99Latency);
        }
        report.addMetric(def.name + ".miss_rate_delta_preempt",
                         fcfs.missRate - preempt.missRate);
    }

    std::printf("Reading: FCFS strands short deadline bursts behind\n"
                "long resident kernels; reordering admits them first\n"
                "when a slot frees, and CTA-drain preemption frees the\n"
                "slot instead of waiting — the p99 and deadline-miss\n"
                "columns quantify each step.\n\n");

    std::printf("E19: serving decision audit and predictor accuracy\n\n");
    std::printf("%s\n", decisions.toText().c_str());
    std::printf("Reading: every admission the engine grants and every\n"
                "one it defers is in the audit with the inputs that\n"
                "drove it — queue depth, LCS headroom, predicted\n"
                "runtime, deadline slack. The preempt rows name the\n"
                "drained victim and its predicted remainder; pred-err\n"
                "is the predictor's mean |predicted - actual| in\n"
                "cycles, which converges as the per-workload EWMA\n"
                "absorbs completed launches.\n");

    if (!opts.emitJsonPath.empty()) {
        writeFile(opts.emitJsonPath,
                  [&](std::ostream& os) { report.writeJson(os); });
        std::printf("wrote %s\n", opts.emitJsonPath.c_str());
    }
    bench::writeRunArtifacts(
        opts, config, makeWorkload("nw"), "nw/serving",
        {{"servetrace.json",
          [&](std::ostream& os) { audit_report.writeJson(os); }}});
    return 0;
}
