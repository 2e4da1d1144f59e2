#include "obs/trace.hh"

#include <algorithm>
#include <ostream>
#include <string>

#include "obs/sampler.hh"
#include "obs/sink.hh"
#include "sim/log.hh"

namespace bsched {

const char*
toString(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::KernelLaunch:
        return "kernel.launch";
      case TraceEventKind::KernelRetire:
        return "kernel.retire";
      case TraceEventKind::CtaDispatch:
        return "cta.dispatch";
      case TraceEventKind::CtaComplete:
        return "cta.complete";
      case TraceEventKind::LcsWindowClose:
        return "lcs.window_close";
      case TraceEventKind::BcsPairForm:
        return "bcs.pair_form";
      case TraceEventKind::DynctaAdjust:
        return "dyncta.adjust";
      case TraceEventKind::CacheMissBurst:
        return "cache.miss_burst";
      case TraceEventKind::DramRowConflict:
        return "dram.row_conflict";
      case TraceEventKind::DrainRequest:
        return "serve.drain";
      case TraceEventKind::DrainComplete:
        return "serve.drain_complete";
      case TraceEventKind::ServeArrival:
        return "serve.arrival";
      case TraceEventKind::ServeQueued:
        return "serve.queued";
      case TraceEventKind::ServeDispatching:
        return "serve.dispatching";
      case TraceEventKind::ServeRunning:
        return "serve.running";
      case TraceEventKind::ServeDrainVictim:
        return "serve.drain_victim";
      case TraceEventKind::PhaseChange:
        return "phase.change";
    }
    panic("unknown TraceEventKind");
}

Tracer::Tracer(std::uint32_t num_cores, std::uint32_t num_partitions,
               std::size_t capacity_per_track)
    : numCores_(num_cores),
      numPartitions_(num_partitions),
      capacity_(capacity_per_track)
{
    if (capacity_ == 0)
        fatal("tracer: ring capacity must be > 0");
    tracks_.resize(gpuTrack() + 1);
}

std::uint32_t
Tracer::addTrack(const std::string& name)
{
    const auto track = static_cast<std::uint32_t>(tracks_.size());
    tracks_.emplace_back();
    extraNames_.push_back(name);
    return track;
}

std::string
Tracer::trackName(std::uint32_t track) const
{
    if (track < numCores_)
        return "core" + std::to_string(track);
    if (track < numCores_ + numPartitions_)
        return "part" + std::to_string(track - numCores_);
    if (track == gpuTrack())
        return "gpu";
    return extraNames_.at(track - gpuTrack() - 1);
}

void
Tracer::record(std::uint32_t track, const TraceEvent& event)
{
    Ring& ring = tracks_.at(track);
    if (ring.buf.size() < capacity_) {
        // Growing: append. The head stays at 0 until the ring is full.
        if (ring.buf.size() == ring.buf.capacity()) {
            ring.buf.reserve(
                std::min(capacity_, std::max<std::size_t>(
                                        64, 2 * ring.buf.size())));
        }
        ring.buf.push_back(event);
    } else {
        // Full: overwrite the oldest slot and advance the head.
        ring.buf[ring.head] = event;
        ring.head = (ring.head + 1) % capacity_;
        ++dropped_;
    }
    ++recorded_;
}

std::vector<TraceEvent>
Tracer::events(std::uint32_t track) const
{
    const Ring& ring = tracks_.at(track);
    std::vector<TraceEvent> out;
    out.reserve(ring.buf.size());
    for (std::size_t i = 0; i < ring.buf.size(); ++i)
        out.push_back(ring.buf[(ring.head + i) % ring.buf.size()]);
    return out;
}

std::vector<TraceEvent>
Tracer::eventsOfKind(TraceEventKind kind) const
{
    std::vector<TraceEvent> out;
    for (std::uint32_t t = 0; t < numTracks(); ++t) {
        for (const TraceEvent& event : events(t)) {
            if (event.kind == kind)
                out.push_back(event);
        }
    }
    return out;
}

bool
isSpan(TraceEventKind kind)
{
    return kind == TraceEventKind::CtaComplete ||
        kind == TraceEventKind::KernelRetire ||
        kind == TraceEventKind::DrainComplete ||
        kind == TraceEventKind::ServeQueued ||
        kind == TraceEventKind::ServeDispatching ||
        kind == TraceEventKind::ServeRunning;
}

namespace {

void
writeEventJson(std::ostream& os, const TraceEvent& event,
               std::uint32_t track)
{
    // One simulated cycle = one trace microsecond.
    const Cycle start = event.cycle - event.duration;
    os << "{\"name\":\"" << toString(event.kind) << "\",";
    if (isSpan(event.kind)) {
        os << "\"ph\":\"X\",\"ts\":" << start
           << ",\"dur\":" << event.duration << ",";
    } else {
        os << "\"ph\":\"i\",\"ts\":" << event.cycle << ",\"s\":\"t\",";
    }
    os << "\"pid\":" << track << ",\"tid\":0,\"args\":{"
       << "\"kernel\":" << event.kernelId << ",\"arg0\":" << event.arg0
       << ",\"arg1\":" << event.arg1 << "}}";
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream& os,
                         const IntervalSampler* sampler) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Name each track so chrome://tracing shows core0..N, part0..M, gpu.
    for (std::uint32_t t = 0; t < numTracks(); ++t) {
        sep();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << t
           << ",\"tid\":0,\"args\":{\"name\":\""
           << jsonEscape(trackName(t)) << "\"}}";
    }

    for (std::uint32_t t = 0; t < numTracks(); ++t) {
        for (const TraceEvent& event : events(t)) {
            sep();
            writeEventJson(os, event, t);
        }
    }

    // Gauge series become counter tracks on the gpu process.
    if (sampler != nullptr) {
        for (const auto& [name, series] : sampler->series()) {
            if (series.kind != SeriesKind::Gauge)
                continue;
            for (std::size_t i = 0; i < series.values.size(); ++i) {
                sep();
                os << "{\"name\":\"" << jsonEscape(name)
                   << "\",\"ph\":\"C\",\"ts\":" << sampler->cycles()[i]
                   << ",\"pid\":" << gpuTrack() << ",\"args\":{\"value\":"
                   << jsonNumber(series.values[i]) << "}}";
            }
        }
    }

    os << "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"schema\":\"bsched-trace-v1\",\"cycle_unit\":\"us\","
       << "\"recorded\":" << recorded_ << ",\"dropped\":" << dropped_
       << "}}\n";
}

} // namespace bsched
