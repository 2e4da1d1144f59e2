#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "obs/sink.hh"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

std::mutex g_spanMutex;
std::vector<Span> g_spans;
bool g_spansOn = false;
thread_local std::vector<int> t_open;

} // namespace

double
now()
{
    return std::chrono::duration<double>(Clock::now() - g_start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
timeSetUp(const std::function<void()>& setUp)
{
    std::vector<double> times;
    const double start = now();
    while (times.size() < 5 || now() - start < 0.25) {
        const double t0 = now();
        setUp();
        times.push_back(now() - t0);
    }
    return median(times);
}

// --- spans ----------------------------------------------------------------

void
enableSpans()
{
    g_spansOn = true;
}

ScopedSpan::ScopedSpan(const char* name, std::int64_t id, int parent)
{
    if (!g_spansOn)
        return;
    if (parent == kParentAuto)
        parent = t_open.empty() ? -1 : t_open.back();
    const double start = now();
    std::lock_guard<std::mutex> lock(g_spanMutex);
    index_ = static_cast<int>(g_spans.size());
    g_spans.push_back({name, start, start, parent, id});
    t_open.push_back(index_);
}

ScopedSpan::~ScopedSpan()
{
    if (index_ < 0)
        return;
    const double end = now();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(g_spanMutex);
    g_spans[static_cast<std::size_t>(index_)].end = end;
}

namespace {

/** Every recorded span, in open order. */
std::vector<Span>
recordedSpans()
{
    std::lock_guard<std::mutex> lock(g_spanMutex);
    return g_spans;
}

} // namespace

std::vector<double>
spanDurations(const std::string& name)
{
    std::vector<double> out;
    for (const Span& span : recordedSpans()) {
        if (span.name == name)
            out.push_back(span.end - span.start);
    }
    return out;
}

namespace {

/** Self seconds of every span, indexed like recordedSpans(). */
std::vector<double>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span& span : spans) {
        if (span.parent >= 0) {
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start, span.end);
        }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = spans[i].start;
        for (const auto& [start, end] : kids) {
            const double lo = std::max(start, reach);
            const double hi = std::min(end, spans[i].end);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, end);
        }
        self[i] = std::max(0.0, spans[i].end - spans[i].start - covered);
    }
    return self;
}

} // namespace

std::map<std::string, double>
spanSelfSeconds()
{
    const std::vector<Span> spans = recordedSpans();
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

void
writeSpans(const std::string& path)
{
    const std::vector<Span> spans = recordedSpans();
    const std::vector<double> self = selfTimes(spans);
    bsched::writeFile(path, [&](std::ostream& os) {
        os << "{\"schema\":\"perfbench-spans-v1\",\"time_unit\":\"s\","
              "\"spans\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\""
               << bsched::jsonEscape(s.name)
               << "\",\"start\":" << bsched::jsonNumber(s.start)
               << ",\"end\":" << bsched::jsonNumber(s.end)
               << ",\"parent\":" << s.parent << ",\"id\":" << s.id
               << ",\"self\":" << bsched::jsonNumber(self[i]) << "}";
        }
        os << "\n]}\n";
    });
}

// --- output check ---------------------------------------------------------

std::string
statsDigest(const StatSet& stats)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](const std::string& text) {
        for (const unsigned char c : text) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    };
    char value[40];
    for (const auto& [name, v] : stats.entries()) {
        std::snprintf(value, sizeof(value), "=%.17g;", v);
        mix(name);
        mix(value);
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

std::string
resultText(const RunResult& result)
{
    return std::to_string(result.cycles) + " " +
        std::to_string(result.instrs) + " " + statsDigest(result.stats);
}

void
Expectations::load(const std::string& dir, const std::string& file)
{
    if (dir.empty())
        return;
    std::ifstream in(dir + "/" + file);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t space = line.find(' ');
        if (line.empty() || line[0] == '#' || space == std::string::npos)
            continue;
        expected_[line.substr(0, space)] = line.substr(space + 1);
    }
}

const std::string*
Expectations::lookup(const std::string& id) const
{
    const auto it = expected_.find(id);
    return it == expected_.end() ? nullptr : &it->second;
}

void
Expectations::record(const std::string& id, const std::string& value)
{
    recorded_.emplace_back(id, value);
}

bool
Expectations::matches(const std::string& id, const std::string& value,
                      bool required)
{
    record(id, value);
    const std::string* want = lookup(id);
    if (want == nullptr && !required)
        return true;
    const bool ok = want != nullptr && *want == value;
    if (!ok) {
        std::fprintf(stderr, "check failed: %s: got '%s', expected '%s'\n",
                     id.c_str(), value.c_str(),
                     want == nullptr ? "(none)" : want->c_str());
    }
    return ok;
}

void
Expectations::tally(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
Expectations::writeRecorded(const std::string& path) const
{
    bsched::writeFile(path, [&](std::ostream& os) {
        for (const auto& [id, value] : recorded_)
            os << id << " " << value << "\n";
    });
}

// --- simulated counters ---------------------------------------------------

void
SimCounters::add(const StatSet& s)
{
    activeCycles += s.sumBySuffix(".active_cycles");
    issueCycles += s.sumBySuffix(".issue_cycles");
    stallMem += s.sumBySuffix(".stall_mem");
    ldstLines += s.sumBySuffix(".ldst.lines");
    ldstRetry += s.sumBySuffix(".ldst.retry");
    l1Access += s.sumBySuffix(".l1d.access");
    l1Miss += s.sumBySuffix(".l1d.miss");
    l2Access += s.sumBySuffix(".l2.access");
    l2Miss += s.sumBySuffix(".l2.miss");
    rowHit += s.sumBySuffix(".dram.row_hit");
    rowMiss += s.sumBySuffix(".dram.row_miss");
    mshrAlloc += s.sumBySuffix("mshr.alloc");
    mshrMerge += s.sumBySuffix("mshr.merge");
    dispatches += s.get("ctasched.dispatches");
    for (const std::string& name : s.namesBySuffix(".n_opt")) {
        noptSum += s.get(name);
        noptCount += 1;
    }
}

void
SimCounters::emit(std::map<std::string, double>& layers) const
{
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    layers["core.issue_share"] = ratio(issueCycles, activeCycles);
    layers["core.stall_mem_share"] = ratio(stallMem, activeCycles);
    layers["core.ldst_retry_share"] = ratio(ldstRetry, ldstLines + ldstRetry);
    layers["mem.l1d_miss_rate"] = ratio(l1Miss, l1Access);
    layers["mem.l2_miss_rate"] = ratio(l2Miss, l2Access);
    layers["mem.dram_row_hit_rate"] = ratio(rowHit, rowHit + rowMiss);
    layers["mem.mshr_merge_ratio"] = ratio(mshrMerge, mshrAlloc + mshrMerge);
    layers["cta.dispatches"] = dispatches;
    layers["cta.n_opt_mean"] = ratio(noptSum, noptCount);
}

void
StepTimes::merge(const StepTimes& o)
{
    busyNs += o.busyNs;
    ffNs += o.ffNs;
    busySteps += o.busySteps;
    ffSteps += o.ffSteps;
    cycles += o.cycles;
    elided += o.elided;
}

void
StepTimes::emit(std::map<std::string, double>& layers) const
{
    layers["gpu.step_busy_ns"] = busySteps > 0 ? busyNs / busySteps : 0.0;
    layers["gpu.step_ff_ns"] = ffSteps > 0 ? ffNs / ffSteps : 0.0;
    layers["gpu.elided_share"] = cycles > 0 ? elided / cycles : 0.0;
    layers["gpu.steps_per_kcycle"] =
        cycles > 0 ? 1000.0 * (busySteps + ffSteps) / cycles : 0.0;
}

bool
timedStep(bsched::Gpu& gpu, StepTimes& times)
{
    const bsched::Cycle before = gpu.cycle();
    const Clock::time_point t0 = Clock::now();
    const bool more = gpu.stepCycle();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (gpu.cycle() - before > 1) {
        times.ffNs += ns;
        times.ffSteps += 1;
    } else {
        times.busyNs += ns;
        times.busySteps += 1;
    }
    return more;
}

void
timedRun(bsched::Gpu& gpu, StepTimes& times)
{
    // Mirrors Gpu::run(): step to completion, drain, close the samples.
    while (timedStep(gpu, times)) {
    }
    while (!gpu.drained())
        timedStep(gpu, times);
    gpu.finalizeSample();
    times.cycles += static_cast<double>(gpu.cycle());
    times.elided += static_cast<double>(gpu.elidedCycles());
}

RunResult
resultOf(const bsched::Gpu& gpu)
{
    RunResult result;
    result.cycles = gpu.cycle();
    result.instrs = gpu.totalInstrsIssued();
    result.ipc = gpu.ipc();
    ScopedSpan span("gpu.stats");
    result.stats = gpu.stats();
    return result;
}

} // namespace perfbench
