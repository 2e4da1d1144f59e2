#include "obs/phase/phase.hh"

#include <cmath>
#include <ostream>

#include "obs/sink.hh"
#include "obs/trace.hh"
#include "sim/log.hh"

namespace bsched {

namespace {

/** Delta of a per-id cumulative vector that may grow between windows
 *  (kernels launched mid-run); absent previous entries count as 0. */
std::uint64_t
deltaAt(const std::vector<std::uint64_t>& cur,
        const std::vector<std::uint64_t>& prev, std::size_t i)
{
    const std::uint64_t before = i < prev.size() ? prev[i] : 0;
    return cur[i] - before;
}

double
safeShare(std::uint64_t part, std::uint64_t whole)
{
    return whole > 0
        ? static_cast<double>(part) / static_cast<double>(whole)
        : 0.0;
}

} // namespace

const WindowDeltas&
WindowedMetrics::close(Cycle end, const CounterSnapshot& snap)
{
    if (!endCycles_.empty() && end <= endCycles_.back()) {
        panic("phase: window close at cycle ", end,
              " not after previous boundary ", endCycles_.back());
    }
    const Cycle span = end - prevCycle_;
    if (span == 0)
        panic("phase: zero-length window at cycle ", end);
    const double cycles = static_cast<double>(span);

    const std::uint64_t d_instrs = snap.instrs - prev_.instrs;
    const std::uint64_t d_issue = snap.issueCycles - prev_.issueCycles;
    const std::uint64_t d_stall_mem = snap.stallMem - prev_.stallMem;
    const std::uint64_t d_stall_idle = snap.stallIdle - prev_.stallIdle;
    const std::uint64_t d_l1a = snap.l1Access - prev_.l1Access;
    const std::uint64_t d_l1m = snap.l1Miss - prev_.l1Miss;
    const std::uint64_t d_rh = snap.rowHit - prev_.rowHit;
    const std::uint64_t d_rm = snap.rowMiss - prev_.rowMiss;
    const std::uint64_t d_rc = snap.rowConflict - prev_.rowConflict;

    last_ = WindowDeltas{};
    last_.ipc = static_cast<double>(d_instrs) / cycles;
    last_.stallMemShare =
        safeShare(d_stall_mem, d_issue + d_stall_mem + d_stall_idle);
    last_.l1MissRate = safeShare(d_l1m, d_l1a);
    last_.rowHitRate = safeShare(d_rh, d_rh + d_rm + d_rc);

    last_.coreIpc.reserve(snap.coreInstrs.size());
    last_.coreStallShare.reserve(snap.coreInstrs.size());
    for (std::size_t c = 0; c < snap.coreInstrs.size(); ++c) {
        const std::uint64_t ci =
            deltaAt(snap.coreInstrs, prev_.coreInstrs, c);
        const std::uint64_t cis =
            deltaAt(snap.coreIssue, prev_.coreIssue, c);
        const std::uint64_t cm =
            deltaAt(snap.coreStallMem, prev_.coreStallMem, c);
        const std::uint64_t cid =
            deltaAt(snap.coreStallIdle, prev_.coreStallIdle, c);
        last_.coreIpc.push_back(static_cast<double>(ci) / cycles);
        last_.coreStallShare.push_back(safeShare(cm, cis + cm + cid));
    }

    last_.kernelIpc.reserve(snap.kernelInstrs.size());
    last_.kernelActive.reserve(snap.kernelInstrs.size());
    for (std::size_t k = 0; k < snap.kernelInstrs.size(); ++k) {
        const std::uint64_t ki =
            deltaAt(snap.kernelInstrs, prev_.kernelInstrs, k);
        last_.kernelIpc.push_back(static_cast<double>(ki) / cycles);
        last_.kernelActive.push_back(ki > 0 ? 1 : 0);
    }

    if (snap.hasInterference) {
        hasInterference_ = true;
        last_.hasInterference = true;
        const std::uint64_t d_l1x = snap.l1CrossCta - prev_.l1CrossCta;
        const std::uint64_t d_l2x = snap.l2CrossCta - prev_.l2CrossCta;
        const std::uint64_t d_dq =
            snap.dramQueueCycles - prev_.dramQueueCycles;
        const std::uint64_t d_mshr =
            snap.l2MshrOccCycles - prev_.l2MshrOccCycles;
        last_.l1CrossRate = static_cast<double>(d_l1x) / cycles * 1000.0;
        last_.l2CrossRate = static_cast<double>(d_l2x) / cycles * 1000.0;
        last_.dramQOccupancy = static_cast<double>(d_dq) / cycles;
        last_.l2MshrOccupancy = static_cast<double>(d_mshr) / cycles;
        l1CrossRate_.push_back(last_.l1CrossRate);
        l2CrossRate_.push_back(last_.l2CrossRate);
        dramQOccupancy_.push_back(last_.dramQOccupancy);
        l2MshrOccupancy_.push_back(last_.l2MshrOccupancy);
    }

    endCycles_.push_back(end);
    ipc_.push_back(last_.ipc);
    stallMemShare_.push_back(last_.stallMemShare);
    l1MissRate_.push_back(last_.l1MissRate);
    rowHitRate_.push_back(last_.rowHitRate);
    instrDeltas_.push_back(d_instrs);
    l1AccessDeltas_.push_back(d_l1a);
    rowHitDeltas_.push_back(d_rh);

    prev_ = snap;
    prevCycle_ = end;
    return last_;
}

PhaseDetector::PhaseDetector(const PhaseConfig& config,
                             std::vector<std::uint8_t> relative)
    : config_(config), relative_(std::move(relative))
{
    if (relative_.empty())
        fatal("phase: detector needs at least one channel");
}

bool
PhaseDetector::outOfBand(const std::vector<double>& values) const
{
    const Phase& cur = phases_.back();
    for (std::size_t c = 0; c < values.size(); ++c) {
        const double dev = std::abs(values[c] - cur.mean[c]);
        if (relative_[c] != 0) {
            // Rate-like channel: deviation relative to the reference
            // magnitude (floored so a zero reference stays comparable).
            const double scale = std::abs(cur.mean[c]) > 1e-9
                ? std::abs(cur.mean[c])
                : 1e-9;
            if (dev > config_.relThreshold * scale)
                return true;
        } else if (dev > config_.absThreshold) {
            return true;
        }
    }
    return false;
}

bool
PhaseDetector::observe(std::size_t window,
                       const std::vector<double>& values)
{
    if (values.size() != relative_.size()) {
        panic("phase: detector fed ", values.size(),
              " channels, expected ", relative_.size());
    }
    if (phases_.empty()) {
        Phase first;
        first.startWindow = window;
        first.windows = 1;
        first.mean = values;
        phases_.push_back(first);
        inBandWindows_ = 1;
        return false;
    }
    if (!outOfBand(values)) {
        Phase& cur = phases_.back();
        // Any pending deviants were a transient: they stay in the
        // current phase but never polluted the reference mean.
        cur.windows += pending_.size() + 1;
        pending_.clear();
        const double n = static_cast<double>(inBandWindows_);
        for (std::size_t c = 0; c < values.size(); ++c)
            cur.mean[c] = (cur.mean[c] * n + values[c]) / (n + 1.0);
        ++inBandWindows_;
        return false;
    }
    if (pending_.empty())
        pendingStart_ = window;
    pending_.push_back(values);
    if (pending_.size() < config_.hysteresis)
        return false;

    // Commit: the new phase is backdated to the first deviating window
    // and its reference seeded with the pending windows' mean.
    Phase next;
    next.startWindow = pendingStart_;
    next.windows = pending_.size();
    next.mean.assign(values.size(), 0.0);
    for (const std::vector<double>& w : pending_) {
        for (std::size_t c = 0; c < w.size(); ++c)
            next.mean[c] += w[c];
    }
    for (double& m : next.mean)
        m /= static_cast<double>(pending_.size());
    inBandWindows_ = static_cast<std::uint64_t>(pending_.size());
    pending_.clear();
    phases_.push_back(next);
    return true;
}

PhaseTelemetry::PhaseTelemetry(PhaseConfig config)
    : config_(config),
      machine_(config_, std::vector<std::uint8_t>{1, 0, 0})
{
    if (config_.windowCycles == 0)
        fatal("phase: windowCycles must be > 0");
    if (config_.hysteresis == 0)
        fatal("phase: hysteresis must be > 0");
}

void
PhaseTelemetry::onAttach(std::uint32_t num_cores, Tracer* tracer)
{
    if (attached_)
        fatal("phase: telemetry attached to a second Gpu");
    attached_ = true;
    cores_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c)
        cores_.emplace_back(config_, std::vector<std::uint8_t>{1, 0});
    tracer_ = tracer;
    if (tracer_ != nullptr)
        track_ = tracer_->addTrack("phase");
}

void
PhaseTelemetry::emitChange(Cycle now, int kernel_id, std::int64_t scope,
                           std::size_t phase)
{
    if (tracer_ == nullptr)
        return;
    TraceEvent event;
    event.cycle = now;
    event.kind = TraceEventKind::PhaseChange;
    event.kernelId = kernel_id;
    event.arg0 = static_cast<std::int64_t>(phase);
    event.arg1 = scope;
    tracer_->record(track_, event);
}

void
PhaseTelemetry::closeWindow(Cycle now, const CounterSnapshot& snap)
{
    const std::size_t window = metrics_.windows();
    const WindowDeltas& d = metrics_.close(now, snap);

    // The machine detector reads IPC, the memory-stall share and the
    // L1 miss rate. Row-buffer hit rate is exported but not detected
    // on: over one window in a compute regime the DRAM access count
    // is tiny, so the ratio is sampling noise that would split phases
    // spuriously.
    if (machine_.observe(window,
                         {d.ipc, d.stallMemShare, d.l1MissRate})) {
        emitChange(now, kInvalidId, -1, machine_.currentPhase());
    }
    for (std::size_t c = 0; c < d.coreIpc.size() && c < cores_.size();
         ++c) {
        if (cores_[c].observe(window,
                              {d.coreIpc[c], d.coreStallShare[c]})) {
            emitChange(now, kInvalidId, static_cast<std::int64_t>(c),
                       cores_[c].currentPhase());
        }
    }
    for (std::size_t k = 0; k < d.kernelIpc.size(); ++k) {
        // Windows in which a kernel issued nothing (not yet dispatched,
        // or already retired) are skipped for its detector.
        if (d.kernelActive[k] == 0)
            continue;
        auto it = kernels_.find(static_cast<int>(k));
        if (it == kernels_.end()) {
            it = kernels_
                     .emplace(static_cast<int>(k),
                              PhaseDetector(
                                  config_,
                                  std::vector<std::uint8_t>{1}))
                     .first;
        }
        if (it->second.observe(window, {d.kernelIpc[k]}))
            emitChange(now, static_cast<int>(k), -1,
                       it->second.currentPhase());
    }
}

namespace {

void
writeDoubleArray(std::ostream& os, const std::vector<double>& values)
{
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i == 0 ? "" : ", ") << jsonNumber(values[i]);
    os << "]";
}

void
writeSeriesEntry(std::ostream& os, const char* name,
                 const std::vector<double>& values, bool last)
{
    os << "    \"" << name << "\": ";
    writeDoubleArray(os, values);
    os << (last ? "\n" : ",\n");
}

/** One detector's phase list, mapped back onto the cycle axis. */
void
writePhaseList(std::ostream& os,
               const std::vector<PhaseDetector::Phase>& phases,
               const std::vector<const char*>& channels,
               const std::vector<Cycle>& ends)
{
    os << "[";
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const PhaseDetector::Phase& phase = phases[p];
        const Cycle start_cycle = phase.startWindow == 0
            ? 0
            : ends.at(phase.startWindow - 1);
        os << (p == 0 ? "" : ", ") << "{\"phase\": " << p
           << ", \"start_window\": " << phase.startWindow
           << ", \"start_cycle\": " << start_cycle
           << ", \"windows\": " << phase.windows << ", \"mean\": {";
        for (std::size_t c = 0; c < channels.size(); ++c) {
            os << (c == 0 ? "" : ", ") << "\"" << channels[c]
               << "\": " << jsonNumber(phase.mean[c]);
        }
        os << "}}";
    }
    os << "]";
}

} // namespace

void
writePhaseJson(std::ostream& os, const PhaseTelemetry& telemetry,
               const std::string& label)
{
    const WindowedMetrics& m = telemetry.metrics();
    const std::vector<Cycle>& ends = m.endCycles();
    const std::vector<const char*> machine_channels = {
        "ipc", "stall_mem_share", "l1_miss_rate"};
    const std::vector<const char*> core_channels = {"ipc",
                                                    "stall_mem_share"};
    const std::vector<const char*> kernel_channels = {"ipc"};

    os << "{\n  \"schema\": \"bsched-phase-v1\",\n"
       << "  \"label\": \"" << jsonEscape(label) << "\",\n"
       << "  \"config\": {\"window_cycles\": "
       << telemetry.config().windowCycles << ", \"rel_threshold\": "
       << jsonNumber(telemetry.config().relThreshold)
       << ", \"abs_threshold\": "
       << jsonNumber(telemetry.config().absThreshold)
       << ", \"hysteresis\": " << telemetry.config().hysteresis
       << "},\n"
       << "  \"windows\": " << m.windows() << ",\n"
       << "  \"window_end_cycles\": [";
    for (std::size_t i = 0; i < ends.size(); ++i)
        os << (i == 0 ? "" : ", ") << ends[i];
    os << "],\n  \"series\": {\n";
    writeSeriesEntry(os, "ipc", m.ipc(), false);
    writeSeriesEntry(os, "stall_mem_share", m.stallMemShare(), false);
    writeSeriesEntry(os, "l1_miss_rate", m.l1MissRate(), false);
    writeSeriesEntry(os, "row_hit_rate", m.rowHitRate(),
                     !m.hasInterference());
    if (m.hasInterference()) {
        writeSeriesEntry(os, "l1_cross_cta_rate", m.l1CrossRate(), false);
        writeSeriesEntry(os, "l2_cross_cta_rate", m.l2CrossRate(), false);
        writeSeriesEntry(os, "dram_q_occupancy", m.dramQOccupancy(),
                         false);
        writeSeriesEntry(os, "l2_mshr_occupancy", m.l2MshrOccupancy(),
                         true);
    }
    os << "  },\n  \"machine\": {\"phase_count\": "
       << telemetry.machine().phases().size() << ", \"phases\": ";
    writePhaseList(os, telemetry.machine().phases(), machine_channels,
                   ends);
    os << "},\n  \"cores\": [\n";
    const std::vector<PhaseDetector>& cores = telemetry.coreDetectors();
    for (std::size_t c = 0; c < cores.size(); ++c) {
        os << "    {\"core\": " << c << ", \"phase_count\": "
           << cores[c].phases().size() << ", \"phases\": ";
        writePhaseList(os, cores[c].phases(), core_channels, ends);
        os << "}" << (c + 1 == cores.size() ? "\n" : ",\n");
    }
    os << "  ],\n  \"kernels\": [\n";
    const std::map<int, PhaseDetector>& kernels =
        telemetry.kernelDetectors();
    std::size_t written = 0;
    for (const auto& [id, detector] : kernels) {
        os << "    {\"kernel\": " << id << ", \"phase_count\": "
           << detector.phases().size() << ", \"phases\": ";
        writePhaseList(os, detector.phases(), kernel_channels, ends);
        os << "}" << (++written == kernels.size() ? "\n" : ",\n");
    }
    os << "  ]\n}\n";
}

} // namespace bsched
