/**
 * @file
 * Tests for the structured sinks: JSON primitives, the bsched-run-v1 /
 * bsched-bench-v1 schemas, and byte-identity of serialized artifacts
 * between serial and parallel harness runs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "obs/json.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"

namespace bsched {
namespace {

GpuConfig
cfg()
{
    GpuConfig c = makeConfig(WarpSchedKind::GTO, CtaSchedKind::RoundRobin);
    c.numCores = 2;
    c.numMemPartitions = 2;
    return c;
}

KernelInfo
kernel()
{
    KernelInfo k;
    k.name = "sink";
    k.grid = {8, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(4).load(i).alu(3).endLoop();
    k.program = b.build();
    return k;
}

TEST(JsonPrimitives, NumberFormatting)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-3.0), "-3");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(1e18), "1e+18"); // beyond exact-integer range
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonPrimitives, Escaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\n\t"), "x\\n\\t");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonPrimitives, ParserRoundTripsSinkOutput)
{
    StatSet stats;
    stats.set("a.b", 1.5);
    stats.set("a.c", -2.0);
    std::ostringstream os;
    writeStatsJson(os, stats);
    const JsonValue doc = parseJson(os.str());
    EXPECT_DOUBLE_EQ(doc.at("a.b").asNumber(), 1.5);
    EXPECT_DOUBLE_EQ(doc.at("a.c").asNumber(), -2.0);
}

TEST(Sink, RunJsonMatchesSchema)
{
    const GpuConfig config = cfg();
    IntervalSampler sampler(64);
    const RunResult r =
        runKernel(config, kernel(), Observer{nullptr, &sampler});

    std::ostringstream os;
    writeRunJson(os, r, "sink/run", &sampler);
    const JsonValue doc = parseJson(os.str());

    EXPECT_EQ(doc.at("schema").asString(), "bsched-run-v1");
    EXPECT_EQ(doc.at("label").asString(), "sink/run");
    EXPECT_DOUBLE_EQ(doc.at("cycles").asNumber(),
                     static_cast<double>(r.cycles));
    EXPECT_DOUBLE_EQ(doc.at("instrs").asNumber(),
                     static_cast<double>(r.instrs));
    EXPECT_DOUBLE_EQ(doc.at("metrics").at("l1_miss_rate").asNumber(),
                     r.l1MissRate());
    EXPECT_TRUE(doc.at("stats").isObject());
    EXPECT_DOUBLE_EQ(doc.at("stats").at("gpu.instrs").asNumber(),
                     r.stats.get("gpu.instrs"));
    ASSERT_TRUE(doc.has("series"));
    EXPECT_DOUBLE_EQ(doc.at("series").at("period").asNumber(), 64.0);
    EXPECT_EQ(doc.at("series").at("cycles").asArray().size(),
              sampler.samples());
}

TEST(Sink, BenchReportMatchesSchemaAndRejectsDuplicates)
{
    const RunResult r = runKernel(cfg(), kernel());
    BenchReport report("test_bench");
    report.addRow("w/base", r);
    report.addMetric("geomean.speedup", 1.25);

    const JsonValue doc = parseJson(report.toJson());
    EXPECT_EQ(doc.at("schema").asString(), "bsched-bench-v1");
    EXPECT_EQ(doc.at("bench").asString(), "test_bench");
    ASSERT_EQ(doc.at("rows").asArray().size(), 1u);
    const JsonValue& row = doc.at("rows").asArray()[0];
    EXPECT_EQ(row.at("label").asString(), "w/base");
    EXPECT_DOUBLE_EQ(row.at("ipc").asNumber(), r.ipc);
    EXPECT_DOUBLE_EQ(doc.at("metrics").at("geomean.speedup").asNumber(),
                     1.25);

    EXPECT_DEATH(report.addRow("w/base", r), "duplicate");
}

/**
 * The acceptance-criterion property: the serialized artifact bytes must
 * not depend on how many worker threads produced the results.
 */
TEST(Sink, ReportBytesIdenticalAcrossJobCounts)
{
    const GpuConfig config = cfg();
    const KernelInfo k = kernel();

    std::string bytes[2];
    const unsigned job_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        const auto sweep =
            oracleStaticBest(config, {k}, job_counts[i])[0].byLimit;
        BenchReport report("identity");
        for (std::size_t n = 0; n < sweep.size(); ++n)
            report.addRow("limit" + std::to_string(n + 1), sweep[n]);
        report.addMetric("points", static_cast<double>(sweep.size()));
        bytes[i] = report.toJson();
    }
    EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(Sink, WriteFileCreatesArtifact)
{
    const std::string path = ::testing::TempDir() + "bsched_sink_test.json";
    const std::size_t bytes = writeFile(path, [](std::ostream& os) {
        os << "{\"ok\":true}";
    });
    EXPECT_EQ(bytes, 11u);
    const JsonValue doc = parseJsonFile(path);
    EXPECT_TRUE(doc.at("ok").asBool());
    std::remove(path.c_str());
}

} // namespace
} // namespace bsched
