/**
 * @file
 * Serving-layer tests: the fixed-point exponential sampler, the
 * deterministic traffic generator, the runtime predictor, the serving
 * engine's admission/ordering invariants, and the determinism
 * contracts the committed `bsched-serving-v1` artifact depends on —
 * byte-identical reports with fast-forward on or off and for any
 * harness job count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "serve/serve_trace.hh"
#include "serve/serving_report.hh"
#include "serve/traffic.hh"
#include "sim/rng.hh"

namespace bsched {
namespace {

/** Small machine so engine tests stay fast; policies are identical. */
GpuConfig
serveCfg(bool fast_forward = true)
{
    GpuConfig c = makeConfig(WarpSchedKind::GTO, CtaSchedKind::Lazy);
    c.numCores = 4;
    c.numMemPartitions = 2;
    c.fastForward = fast_forward;
    return c;
}

/** Two open-loop tenants over the cheapest suite kernels. */
TrafficSpec
smallSpec(std::uint64_t seed = 5)
{
    TrafficSpec spec;
    spec.seed = seed;
    TenantSpec t0;
    t0.mix = {"lud", "nw"};
    t0.requests = 4;
    t0.meanGapCycles = 4000;
    TenantSpec t1;
    t1.mix = {"pf"};
    t1.requests = 3;
    t1.meanGapCycles = 6000;
    spec.tenants = {t0, t1};
    return spec;
}

/** Bursty deadline tenants against a long-kernel batch tenant on the
 *  small test machine — tuned so the reorder+preempt policy actually
 *  fires at least one CTA-drain preemption. */
TrafficSpec
deadlineSpec()
{
    TrafficSpec spec;
    spec.seed = 23;
    TenantSpec latency;
    latency.process = ArrivalProcess::Bursty;
    latency.mix = {"lud", "nw"};
    latency.requests = 6;
    latency.burstLen = 3;
    latency.meanGapCycles = 400000;
    latency.intraBurstGapCycles = 1000;
    latency.deadlineSlack = 60000;
    TenantSpec batch;
    batch.process = ArrivalProcess::Poisson;
    batch.mix = {"bp"};
    batch.requests = 2;
    batch.meanGapCycles = 500000;
    spec.tenants = {latency, batch};
    return spec;
}

std::map<std::string, Cycle>
fakeIsolated()
{
    return {{"lud", 8000}, {"nw", 9000}, {"pf", 12000}, {"bp", 90000}};
}

// --- negLogQ32 ----------------------------------------------------------

TEST(NegLogQ32, HalfMapsToLn2)
{
    // r = 2^63 is u = 1/2, so -ln(u) = ln 2 = the sampler's own Q32
    // constant (round(ln2 * 2^32) = 2977044472) up to series truncation.
    const std::uint64_t got = negLogQ32(1ULL << 63);
    EXPECT_NEAR(static_cast<double>(got), 2977044472.0, 16.0);
}

TEST(NegLogQ32, QuarterIsTwiceHalf)
{
    const std::uint64_t half = negLogQ32(1ULL << 63);
    const std::uint64_t quarter = negLogQ32(1ULL << 62);
    EXPECT_NEAR(static_cast<double>(quarter),
                2.0 * static_cast<double>(half), 16.0);
}

TEST(NegLogQ32, MonotoneDecreasingInR)
{
    std::uint64_t prev = negLogQ32(1);
    for (int shift = 8; shift < 64; shift += 8) {
        const std::uint64_t cur = negLogQ32(1ULL << shift);
        EXPECT_LT(cur, prev) << "shift " << shift;
        prev = cur;
    }
}

TEST(NegLogQ32, ExtremesAreFiniteAndOrdered)
{
    // r -> 0 pins at u = 2^-64: 64 * ln2. r -> 2^64-1 approaches 0.
    EXPECT_EQ(negLogQ32(0), negLogQ32(1));
    EXPECT_NEAR(static_cast<double>(negLogQ32(0)),
                64.0 * 2977044472.0, 1024.0);
    EXPECT_LT(negLogQ32(~0ULL), 16u);
}

TEST(NegLogQ32, SampleMeanMatchesExponential)
{
    // Mean of -ln(U) over uniform U is 1; the empirical Q32 mean over
    // many seeded draws should land near 2^32 (loose 5% band).
    Rng rng(123);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(negLogQ32(rng.next()));
    const double mean = sum / n;
    EXPECT_NEAR(mean, 4294967296.0, 0.05 * 4294967296.0);
}

// --- traffic generator --------------------------------------------------

TEST(Traffic, SameSpecSameTrace)
{
    const auto a = generateTrace(smallSpec());
    const auto b = generateTrace(smallSpec());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].thinkCycles, b[i].thinkCycles);
        EXPECT_EQ(a[i].deadlineSlack, b[i].deadlineSlack);
    }
}

TEST(Traffic, DifferentSeedsDiffer)
{
    const auto a = generateTrace(smallSpec(5));
    const auto b = generateTrace(smallSpec(6));
    ASSERT_EQ(a.size(), b.size());
    bool any_differ = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].arrival != b[i].arrival ||
            a[i].workload != b[i].workload) {
            any_differ = true;
        }
    }
    EXPECT_TRUE(any_differ);
}

TEST(Traffic, SortedByArrivalWithSeqAsPosition)
{
    const auto trace = generateTrace(smallSpec());
    ASSERT_EQ(trace.size(), 7u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].seq, i);
        if (i > 0) {
            EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
        }
    }
}

TEST(Traffic, WorkloadsComeFromTheTenantMix)
{
    const auto trace = generateTrace(smallSpec());
    for (const LaunchRequest& req : trace) {
        if (req.tenant == 0) {
            EXPECT_TRUE(req.workload == "lud" || req.workload == "nw");
        } else {
            EXPECT_EQ(req.workload, "pf");
        }
    }
}

TEST(Traffic, ClosedLoopShape)
{
    TrafficSpec spec;
    spec.seed = 9;
    TenantSpec t;
    t.process = ArrivalProcess::ClosedLoop;
    t.mix = {"lud"};
    t.requests = 6;
    t.closedDepth = 2;
    t.meanGapCycles = 1000;
    spec.tenants = {t};
    const auto trace = generateTrace(spec);
    ASSERT_EQ(trace.size(), 6u);
    // The first `depth` requests prime the loop with concrete arrivals;
    // the tail is released at serve time, think-delayed.
    std::size_t concrete = 0;
    for (const LaunchRequest& req : trace) {
        if (req.arrival != kCycleNever) {
            ++concrete;
        } else {
            EXPECT_GE(req.thinkCycles, 1u);
        }
    }
    EXPECT_EQ(concrete, 2u);
}

TEST(Traffic, BurstyArrivalsClusterInsideBursts)
{
    TrafficSpec spec;
    spec.seed = 3;
    TenantSpec t;
    t.process = ArrivalProcess::Bursty;
    t.mix = {"lud"};
    t.requests = 8;
    t.burstLen = 4;
    t.meanGapCycles = 500000;
    t.intraBurstGapCycles = 100;
    spec.tenants = {t};
    const auto trace = generateTrace(spec);
    ASSERT_EQ(trace.size(), 8u);
    // Within a burst the gap is the fixed intra-burst spacing.
    EXPECT_EQ(trace[1].arrival - trace[0].arrival, 100u);
    EXPECT_EQ(trace[2].arrival - trace[1].arrival, 100u);
    EXPECT_EQ(trace[3].arrival - trace[2].arrival, 100u);
    // Between bursts the exponential gap dominates.
    EXPECT_GT(trace[4].arrival - trace[3].arrival, 1000u);
}

TEST(Traffic, MalformedSpecsDie)
{
    TrafficSpec empty;
    EXPECT_DEATH(generateTrace(empty), "tenant");
    TrafficSpec no_mix = smallSpec();
    no_mix.tenants[0].mix.clear();
    EXPECT_DEATH(generateTrace(no_mix), "mix");
    TrafficSpec no_reqs = smallSpec();
    no_reqs.tenants[1].requests = 0;
    EXPECT_DEATH(generateTrace(no_reqs), "request");
}

// --- runtime predictor --------------------------------------------------

TEST(Predictor, FallbackUsesAssumedIpc)
{
    const RuntimePredictor pred(8.0);
    EXPECT_EQ(pred.predictTotal("fresh", 8000), 1000u);
}

TEST(Predictor, HistorySeedsThenBlends)
{
    RuntimePredictor pred(8.0, 0.5);
    pred.recordCompletion("k", 400);
    EXPECT_EQ(pred.predictTotal("k", 123456), 400u);
    pred.recordCompletion("k", 800);
    EXPECT_EQ(pred.predictTotal("k", 123456), 600u); // 0.5*800 + 0.5*400
    EXPECT_EQ(pred.completions(), 2u);
}

TEST(Predictor, MonitoredIpcExtrapolatesRemaining)
{
    const RuntimePredictor pred(8.0);
    // 400 of 800 instructions in 100 cycles (IPC 4), monitoring done:
    // remaining 400 instructions at IPC 4 = 100 cycles.
    EXPECT_EQ(pred.predictRemaining("k", 800, 400, 100, 50), 100u);
    // All instructions issued: finishing imminently.
    EXPECT_EQ(pred.predictRemaining("k", 800, 800, 100, 50), 1u);
    // Still inside the monitoring window: history-based estimate minus
    // elapsed (fallback 800/8 = 100 total, 40 elapsed).
    EXPECT_EQ(pred.predictRemaining("k", 800, 10, 40, 50), 60u);
}

// --- policies / engine --------------------------------------------------

TEST(ServePolicy, NamesAndCanonicalOrder)
{
    const auto all = allServePolicies();
    ASSERT_EQ(all.size(), 5u);
    EXPECT_STREQ(toString(all[0]), "sequential");
    EXPECT_STREQ(toString(all[1]), "spatial");
    EXPECT_STREQ(toString(all[2]), "fcfs");
    EXPECT_STREQ(toString(all[3]), "reorder");
    EXPECT_STREQ(toString(all[4]), "reorder+preempt");
}

TEST(ServingEngine, ServesEveryRequestExactlyOnce)
{
    ServeConfig serve;
    serve.policy = ServePolicy::Fcfs;
    ServingEngine engine(serveCfg(), serve);
    const auto trace = generateTrace(smallSpec());
    const ServingRunResult result = engine.run(trace);
    ASSERT_EQ(result.outcomes.size(), trace.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        const RequestOutcome& out = result.outcomes[i];
        EXPECT_EQ(out.req.seq, i);
        ASSERT_NE(out.admit, kCycleNever);
        ASSERT_NE(out.finish, kCycleNever);
        EXPECT_GE(out.admit, out.release);
        EXPECT_GT(out.finish, out.admit);
        EXPECT_LE(out.finish, result.totalCycles);
    }
}

TEST(ServingEngine, SequentialNeverOverlapsKernels)
{
    ServeConfig serve;
    serve.policy = ServePolicy::Sequential;
    ServingEngine engine(serveCfg(), serve);
    const ServingRunResult result = engine.run(generateTrace(smallSpec()));
    // FCFS one-at-a-time: each admission waits for the previous finish.
    std::vector<RequestOutcome> by_admit = result.outcomes;
    std::sort(by_admit.begin(), by_admit.end(),
              [](const RequestOutcome& a, const RequestOutcome& b) {
                  return a.admit < b.admit;
              });
    for (std::size_t i = 1; i < by_admit.size(); ++i)
        EXPECT_GE(by_admit[i].admit, by_admit[i - 1].finish);
    EXPECT_EQ(result.preemptions, 0u);
    EXPECT_EQ(result.reorders, 0u);
}

TEST(ServingEngine, ReorderPreemptMatchesReorderWithoutDeadlines)
{
    // No deadlines -> nothing is ever urgent -> the preemption path
    // never fires and both policies serve the exact same schedule.
    ServeConfig reorder;
    reorder.policy = ServePolicy::Reorder;
    ServingEngine a(serveCfg(), reorder);
    const auto ra = a.run(generateTrace(smallSpec()));

    ServeConfig preempt;
    preempt.policy = ServePolicy::ReorderPreempt;
    ServingEngine b(serveCfg(), preempt);
    const auto rb = b.run(generateTrace(smallSpec()));

    EXPECT_EQ(rb.preemptions, 0u);
    ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
    for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
        EXPECT_EQ(ra.outcomes[i].admit, rb.outcomes[i].admit);
        EXPECT_EQ(ra.outcomes[i].finish, rb.outcomes[i].finish);
    }
}

TEST(ServingEngine, RunMayOnlyBeCalledOnce)
{
    ServeConfig serve;
    ServingEngine engine(serveCfg(), serve);
    engine.run(generateTrace(smallSpec()));
    EXPECT_DEATH(engine.run(generateTrace(smallSpec())), "once");
}

// --- determinism contracts ----------------------------------------------

/** Both serving artifacts of one set of audited runs. */
struct ServingJson
{
    std::string report; ///< bsched-serving-v1
    std::string audit;  ///< bsched-servetrace-v1
};

/** One (trace, policy) run of a determinism test. */
struct ServingPoint
{
    std::string trace;
    TrafficSpec spec;
    ServePolicy policy;
};

/** {Spatial, Fcfs, Reorder} on a trimmed smallSpec. */
std::vector<ServingPoint>
smallPoints()
{
    TrafficSpec small = smallSpec();
    small.tenants[0].requests = 3;
    small.tenants[1].requests = 2;
    return {{"small", small, ServePolicy::Spatial},
            {"small", small, ServePolicy::Fcfs},
            {"small", small, ServePolicy::Reorder}};
}

/** {Fcfs, ReorderPreempt} on deadlineSpec, so preemptions are logged. */
std::vector<ServingPoint>
deadlinePoints()
{
    return {{"deadline", deadlineSpec(), ServePolicy::Fcfs},
            {"deadline", deadlineSpec(), ServePolicy::ReorderPreempt}};
}

/**
 * Serve each point with a ServeTrace attached and return both reports
 * of those runs. A policy subset and tiny traces keep these tests
 * cheap; the serving_gate ctest proves the same contract over the full
 * bench matrix at --jobs 1, 2 and 4 and with fast-forward off.
 */
ServingJson
servingJsonFor(const GpuConfig& config, unsigned jobs,
               const std::vector<ServingPoint>& points)
{
    struct Audited
    {
        ServingRunResult result;
        ServeTrace trace;
    };
    const ParallelRunner runner(jobs);
    const auto results =
        runner.map<Audited>(points.size(), [&](std::size_t i) {
            ServeConfig serve;
            serve.policy = points[i].policy;
            Audited run;
            ServingEngine engine(config, serve);
            engine.setTrace(&run.trace);
            run.result = engine.run(generateTrace(points[i].spec));
            return run;
        });
    ServingReport report("test_serve");
    ServeTraceReport audit("test_serve");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string policy = toString(points[i].policy);
        report.addRun(summarizeServing(policy, points[i].trace,
                                       results[i].result, fakeIsolated()));
        audit.addRun(policy, points[i].trace, results[i].result,
                     results[i].trace);
    }
    return {report.toJson(), audit.toJson()};
}

TEST(ServingDeterminism, FastForwardOnOffByteIdentical)
{
    EXPECT_EQ(servingJsonFor(serveCfg(true), 2, smallPoints()).report,
              servingJsonFor(serveCfg(false), 2, smallPoints()).report);
}

TEST(ServingDeterminism, JobCountByteIdentical)
{
    EXPECT_EQ(servingJsonFor(serveCfg(), 1, smallPoints()).report,
              servingJsonFor(serveCfg(), 4, smallPoints()).report);
}

TEST(ServingDeterminism, RepeatRunByteIdentical)
{
    EXPECT_EQ(servingJsonFor(serveCfg(), 2, smallPoints()).report,
              servingJsonFor(serveCfg(), 2, smallPoints()).report);
}

TEST(ServeTraceDeterminism, FastForwardOnOffByteIdentical)
{
    EXPECT_EQ(servingJsonFor(serveCfg(true), 2, deadlinePoints()).audit,
              servingJsonFor(serveCfg(false), 2, deadlinePoints()).audit);
}

TEST(ServeTraceDeterminism, JobCountByteIdentical)
{
    EXPECT_EQ(servingJsonFor(serveCfg(), 1, deadlinePoints()).audit,
              servingJsonFor(serveCfg(), 4, deadlinePoints()).audit);
}

TEST(ServeTraceDeterminism, RepeatRunByteIdentical)
{
    EXPECT_EQ(servingJsonFor(serveCfg(), 2, deadlinePoints()).audit,
              servingJsonFor(serveCfg(), 2, deadlinePoints()).audit);
}

// --- predictor accuracy -------------------------------------------------

TEST(PredictorAccuracy, CountsAndBinsAbsoluteError)
{
    PredictorAccuracy acc;
    acc.record("k", 100, 110); // under by 10
    acc.record("k", 120, 100); // over by 20
    acc.record("j", 50, 50);   // exact
    EXPECT_EQ(acc.samples(), 3u);
    EXPECT_EQ(acc.overpredictions(), 1u);
    EXPECT_EQ(acc.underpredictions(), 1u);
    EXPECT_EQ(acc.exactPredictions(), 1u);
    EXPECT_DOUBLE_EQ(acc.meanAbsError(), 10.0); // (10 + 20 + 0) / 3
    EXPECT_EQ(acc.errorHistogram().total(), 3u);
    EXPECT_EQ(acc.errorHistogram().sum(), 30u);
    EXPECT_EQ(acc.errorHistogram().max(), 20u);
}

TEST(PredictorAccuracy, EmptyTrackerReadsZero)
{
    const PredictorAccuracy acc;
    EXPECT_EQ(acc.samples(), 0u);
    EXPECT_DOUBLE_EQ(acc.meanAbsError(), 0.0);
    EXPECT_TRUE(acc.workloadSeries("anything").empty());
}

TEST(PredictorAccuracy, WorkloadSeriesPreservesCompletionOrder)
{
    PredictorAccuracy acc;
    acc.record("k", 100, 300);
    acc.record("k", 250, 300);
    acc.record("k", 290, 300);
    const auto& series = acc.workloadSeries("k");
    ASSERT_EQ(series.size(), 3u);
    // The EWMA convergence story: error shrinks sample by sample.
    EXPECT_GT(series[0].absError(), series[1].absError());
    EXPECT_GT(series[1].absError(), series[2].absError());
    EXPECT_EQ(series[0].predicted, 100u);
    EXPECT_EQ(series[2].actual, 300u);
    EXPECT_EQ(acc.byWorkload().size(), 1u);
}

TEST(PredictorAccuracy, ZeroActualDies)
{
    PredictorAccuracy acc;
    EXPECT_DEATH(acc.record("k", 10, 0), "actual");
}

// --- decision audit -----------------------------------------------------

TEST(ServeAudit, FcfsRunAuditsEveryAdmission)
{
    ServeConfig serve;
    serve.policy = ServePolicy::Fcfs;
    ServingEngine engine(serveCfg(), serve);
    ServeTrace trace;
    engine.setTrace(&trace);
    const ServingRunResult result = engine.run(generateTrace(smallSpec()));

    // Every served request was either admitted plainly or launched as a
    // preemptor; FCFS never preempts.
    EXPECT_EQ(trace.audit.preempts, 0u);
    EXPECT_EQ(trace.audit.admits, result.outcomes.size());

    // The per-kind counts are exactly the log's tallies.
    std::map<ServeDecisionKind, std::uint64_t> tally;
    for (const ServeDecision& d : trace.audit.decisions)
        ++tally[d.kind];
    EXPECT_EQ(tally[ServeDecisionKind::Admit], trace.audit.admits);
    EXPECT_EQ(tally[ServeDecisionKind::Defer], trace.audit.defers);
    EXPECT_EQ(tally[ServeDecisionKind::Preempt], trace.audit.preempts);
    EXPECT_EQ(tally[ServeDecisionKind::DrainCancel],
              trace.audit.drainCancels);

    // Admissions carry the inputs that drove them.
    for (const ServeDecision& d : trace.audit.decisions) {
        if (d.kind != ServeDecisionKind::Admit)
            continue;
        EXPECT_FALSE(d.workload.empty());
        EXPECT_GE(d.tenant, 0);
        EXPECT_GT(d.predictedTotal, 0u);
        EXPECT_EQ(d.reason, "admitted");
    }

    // One predictor accuracy sample per completed launch.
    EXPECT_EQ(trace.accuracy.samples(), result.outcomes.size());
}

TEST(ServeAudit, PreemptionRecordsVictimAndRemainder)
{
    ServeConfig serve;
    serve.policy = ServePolicy::ReorderPreempt;
    ServingEngine engine(serveCfg(), serve);
    ServeTrace trace;
    engine.setTrace(&trace);
    const ServingRunResult result =
        engine.run(generateTrace(deadlineSpec()));

    ASSERT_GE(trace.audit.preempts, 1u);
    EXPECT_EQ(result.preemptions, trace.audit.preempts);
    EXPECT_EQ(trace.audit.admits + trace.audit.preempts,
              result.outcomes.size());
    for (const ServeDecision& d : trace.audit.decisions) {
        if (d.kind != ServeDecisionKind::Preempt)
            continue;
        EXPECT_NE(d.victim, kInvalidId);
        EXPECT_GT(d.victimPredictedRemaining, 0u);
        EXPECT_TRUE(d.urgent);
        EXPECT_EQ(d.reason, "deadline_urgent");
        EXPECT_NE(d.deadline, kCycleNever);
    }
    // Victims that outlived their preemptor had the drain lifted.
    EXPECT_EQ(result.drainRequests, trace.audit.preempts);
    EXPECT_EQ(result.drainCancels, trace.audit.drainCancels);
    EXPECT_LE(result.drainCancels + result.drainsCompleted,
              result.drainRequests);
    EXPECT_DOUBLE_EQ(result.stats.get("serve.drain_cancels"),
                     static_cast<double>(result.drainCancels));
    EXPECT_DOUBLE_EQ(result.stats.get("serve.drains_completed"),
                     static_cast<double>(result.drainsCompleted));
}

TEST(ServeAudit, AttachingTheTraceChangesNothing)
{
    ServeConfig serve;
    serve.policy = ServePolicy::ReorderPreempt;
    ServingEngine bare(serveCfg(), serve);
    const auto rb = bare.run(generateTrace(deadlineSpec()));

    ServingEngine audited(serveCfg(), serve);
    ServeTrace trace;
    audited.setTrace(&trace);
    const auto ra = audited.run(generateTrace(deadlineSpec()));

    ASSERT_EQ(rb.outcomes.size(), ra.outcomes.size());
    for (std::size_t i = 0; i < rb.outcomes.size(); ++i) {
        EXPECT_EQ(rb.outcomes[i].admit, ra.outcomes[i].admit);
        EXPECT_EQ(rb.outcomes[i].finish, ra.outcomes[i].finish);
    }
    EXPECT_EQ(rb.totalCycles, ra.totalCycles);
    EXPECT_EQ(rb.preemptions, ra.preemptions);
}

// --- request lifecycle spans --------------------------------------------

TEST(ServeLifecycle, OutcomesCarryFirstDispatchAndPrediction)
{
    ServeConfig serve;
    serve.policy = ServePolicy::Fcfs;
    ServingEngine engine(serveCfg(), serve);
    const ServingRunResult result = engine.run(generateTrace(smallSpec()));
    for (const RequestOutcome& out : result.outcomes) {
        ASSERT_NE(out.firstDispatch, kCycleNever);
        EXPECT_GE(out.firstDispatch, out.admit);
        EXPECT_LT(out.firstDispatch, out.finish);
        EXPECT_GT(out.predictedTotal, 0u);
    }
}

TEST(ServeLifecycle, TenantLanesCarryTheSpans)
{
    const GpuConfig config = serveCfg();
    Tracer tracer(config.numCores, config.numMemPartitions);
    const std::uint32_t fixed = tracer.numTracks();

    ServeConfig serve;
    serve.policy = ServePolicy::Fcfs;
    ServingEngine engine(config, serve);
    Observer obs;
    obs.tracer = &tracer;
    engine.setObserver(obs);
    const auto trace = generateTrace(smallSpec());
    const ServingRunResult result = engine.run(trace);

    // One extra lane per tenant, after the fixed tracks.
    ASSERT_EQ(tracer.numTracks(), fixed + 2);
    EXPECT_EQ(tracer.trackName(fixed), "tenant0");
    EXPECT_EQ(tracer.trackName(fixed + 1), "tenant1");

    const auto arrivals = tracer.eventsOfKind(TraceEventKind::ServeArrival);
    const auto queued = tracer.eventsOfKind(TraceEventKind::ServeQueued);
    const auto running = tracer.eventsOfKind(TraceEventKind::ServeRunning);
    EXPECT_EQ(arrivals.size(), trace.size());
    EXPECT_EQ(queued.size(), trace.size());
    EXPECT_EQ(running.size(), trace.size());

    // Spans agree with the outcomes: queued ends at admit with duration
    // admit - release; running ends at finish.
    for (const TraceEvent& e : queued) {
        const RequestOutcome& out =
            result.outcomes.at(static_cast<std::size_t>(e.arg0));
        EXPECT_EQ(e.cycle, out.admit);
        EXPECT_EQ(e.duration, out.admit - out.release);
    }
    for (const TraceEvent& e : running) {
        const RequestOutcome& out =
            result.outcomes.at(static_cast<std::size_t>(e.arg0));
        EXPECT_EQ(e.cycle, out.finish);
        EXPECT_EQ(e.duration, out.finish - out.firstDispatch);
    }
}

// --- serving gauges on the sampler --------------------------------------

TEST(ServeSampler, GaugesRideEveryFencedSample)
{
    const GpuConfig config = serveCfg();
    IntervalSampler sampler(256);
    ServeConfig serve;
    serve.policy = ServePolicy::Fcfs;
    ServingEngine engine(config, serve);
    Observer obs;
    obs.sampler = &sampler;
    engine.setObserver(obs);
    engine.run(generateTrace(smallSpec()));

    ASSERT_GT(sampler.samples(), 0u);
    for (const char* name :
         {"serve.queue_depth", "serve.running_kernels",
          "serve.occupied_cta_slots", "serve.headroom_slots",
          "serve.drains_in_flight"}) {
        const SampleSeries* series = sampler.find(name);
        ASSERT_NE(series, nullptr) << name;
        EXPECT_EQ(series->kind, SeriesKind::Gauge) << name;
        EXPECT_EQ(series->values.size(), sampler.samples()) << name;
    }
    // The machine served work, so something ran at some point.
    const SampleSeries* running = sampler.find("serve.running_kernels");
    double peak = 0.0;
    for (const double v : running->values)
        peak = std::max(peak, v);
    EXPECT_GE(peak, 1.0);
}

TEST(ServeSampler, GaugesAreFastForwardInvariant)
{
    auto gaugesFor = [](bool fast_forward) {
        IntervalSampler sampler(256);
        ServeConfig serve;
        serve.policy = ServePolicy::Fcfs;
        ServingEngine engine(serveCfg(fast_forward), serve);
        Observer obs;
        obs.sampler = &sampler;
        engine.setObserver(obs);
        engine.run(generateTrace(smallSpec()));
        std::map<std::string, std::vector<double>> values;
        for (const auto& [name, series] : sampler.series())
            values[name] = series.values;
        return std::make_pair(sampler.cycles(), values);
    };
    EXPECT_EQ(gaugesFor(true), gaugesFor(false));
}

TEST(ServeTraceReport, JsonCarriesSchemaDecisionsAndPredictor)
{
    ServeConfig serve;
    serve.policy = ServePolicy::ReorderPreempt;
    ServingEngine engine(serveCfg(), serve);
    ServeTrace trace;
    engine.setTrace(&trace);
    const auto result = engine.run(generateTrace(deadlineSpec()));

    ServeTraceReport report("t");
    report.addRun("reorder+preempt", "deadline", result, trace);
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\": \"bsched-servetrace-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"preempt\""), std::string::npos);
    EXPECT_NE(json.find("\"victim_predicted_remaining\""),
              std::string::npos);
    EXPECT_NE(json.find("\"error_buckets\""), std::string::npos);
    EXPECT_NE(json.find("\"request_spans\""), std::string::npos);
}

TEST(ServeTraceReport, DuplicatePolicyTraceDies)
{
    ServingRunResult result;
    ServeTrace trace;
    ServeTraceReport report("dup");
    report.addRun("fcfs", "t", result, trace);
    EXPECT_DEATH(report.addRun("fcfs", "t", result, trace), "duplicate");
}

// --- report -------------------------------------------------------------

TEST(ServingReport, DuplicatePolicyTraceDies)
{
    ServingReport report("dup");
    ServingSummary s;
    s.policy = "fcfs";
    s.trace = "t";
    report.addRun(s);
    EXPECT_DEATH(report.addRun(s), "duplicate");
}

TEST(ServingReport, MissingIsolatedRuntimeDies)
{
    ServingRunResult result;
    RequestOutcome out;
    out.req.workload = "unknown-kernel";
    out.release = 0;
    out.admit = 1;
    out.finish = 10;
    result.outcomes = {out};
    result.totalCycles = 10;
    EXPECT_DEATH(
        summarizeServing("fcfs", "t", result, fakeIsolated()),
        "isolated");
}

TEST(ServingReport, JsonCarriesSchemaAndRuns)
{
    ServingReport report("fig_serving");
    ServingSummary s;
    s.policy = "fcfs";
    s.trace = "t";
    s.requests = 3;
    report.addRun(s);
    report.addMetric("t.p99_gain_reorder", 1.5);
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\": \"bsched-serving-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"fcfs\""), std::string::npos);
    EXPECT_NE(json.find("\"t.p99_gain_reorder\": 1.5"), std::string::npos);
}

} // namespace
} // namespace bsched
