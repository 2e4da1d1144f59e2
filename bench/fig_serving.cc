/**
 * @file
 * E18 — kernel-launch serving: multi-tenant launch traces (Poisson,
 * bursty, closed-loop) served under the five serving policies —
 * Sequential and Spatial baselines, then shared-core FCFS, reordering
 * (SJF + deadline escalation) and reordering with CTA-drain
 * preemption. Reports throughput, p50/p99 launch-to-finish latency,
 * deadline-miss rate and per-tenant ANTT fairness per (trace, policy),
 * and emits the `bsched-serving-v1` artifact (--emit-json). The
 * artifact is byte-identical for any --jobs and with fast-forward on
 * or off; bench/BENCH_serving.json is the committed baseline CI gates
 * against.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "gpu/gpu.hh"
#include "serve/engine.hh"
#include "serve/serving_report.hh"
#include "serve/traffic.hh"
#include "serve_traces.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

namespace {

using namespace bsched;
using TraceDef = bench::ServeTraceDef;

std::vector<TraceDef>
makeTraces()
{
    return bench::makeServeTraces();
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

    const std::vector<TraceDef> traces = makeTraces();
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
    // fresh GPU and kernel pool.
    const std::size_t points = traces.size() * policies.size();
    const auto results =
        runner.map<ServingRunResult>(points, [&](std::size_t i) {
            const TraceDef& def = traces[i / policies.size()];
            ServeConfig serve;
            serve.policy = policies[i % policies.size()];
            ServingEngine engine(config, serve);
            return engine.run(generateTrace(def.spec));
        });

    ServingReport report("fig_serving");
    Table table("serving policies");
    table.setHeader({"trace", "policy", "reqs", "thrpt/Mcyc", "p50",
                     "p99", "miss-rate", "fairness", "preempts"});
    std::map<std::string, std::map<std::string, ServingSummary>> byTrace;
    for (std::size_t i = 0; i < points; ++i) {
        const TraceDef& def = traces[i / policies.size()];
        const ServePolicy policy = policies[i % policies.size()];
        const ServingSummary summary = summarizeServing(
            toString(policy), def.name, results[i], isolated);
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
                "columns quantify each step.\n");

    if (!opts.emitJsonPath.empty()) {
        writeFile(opts.emitJsonPath,
                  [&](std::ostream& os) { report.writeJson(os); });
        std::printf("wrote %s\n", opts.emitJsonPath.c_str());
    }
    bench::writeRunArtifacts(opts, config, makeWorkload("lud"),
                             "lud/serving");
    return 0;
}
