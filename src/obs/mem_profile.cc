#include "obs/mem_profile.hh"

#include <ostream>

#include "obs/sink.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

const char*
toString(MemStage stage)
{
    switch (stage) {
      case MemStage::CoreQueue:
        return "core_q";
      case MemStage::NocRequest:
        return "noc_req";
      case MemStage::L2Queue:
        return "l2_q";
      case MemStage::DramQueue:
        return "dram_q";
      case MemStage::DramService:
        return "dram_svc";
      case MemStage::L2Mshr:
        return "l2_mshr";
      case MemStage::L2Return:
        return "l2_ret";
      case MemStage::NocResponse:
        return "noc_resp";
    }
    return "?";
}

const char*
toString(MemLevel level)
{
    switch (level) {
      case MemLevel::L1:
        return "l1";
      case MemLevel::L2:
        return "l2";
    }
    return "?";
}

void
MemProfiler::onAttach(std::uint32_t num_cores)
{
    if (!cores_.empty() && cores_.size() != num_cores) {
        fatal("mem profiler: reattached to a different machine shape (",
              cores_.size(), " vs ", num_cores, " cores)");
    }
    cores_.resize(num_cores);
}

std::uint32_t
MemProfiler::beginRequest(Cycle now, std::uint32_t core, int kernel_id,
                          std::int64_t cta_key)
{
    const std::uint32_t id = nextReqId_++;
    if (outstanding_.empty())
        firstId_ = id;
    Record& rec = outstanding_.emplace_back();
    rec.live = true;
    rec.begin = now;
    rec.stageStart = now;
    rec.stage = MemStage::CoreQueue;
    rec.core = core;
    rec.kernelId = kernel_id;
    rec.ctaKey = cta_key;
    ++begun_;
    ++inFlight_;
    return id;
}

const MemProfiler::Record*
MemProfiler::find(std::uint32_t req_id) const
{
    if (req_id < firstId_ || req_id - firstId_ >= outstanding_.size())
        return nullptr;
    const Record& rec = outstanding_[req_id - firstId_];
    return rec.live ? &rec : nullptr;
}

void
MemProfiler::enterStage(std::uint32_t req_id, MemStage stage, Cycle now)
{
    if (req_id == 0)
        return;
    Record* found = find(req_id);
    BSCHED_CHECK(found != nullptr, "mem profiler: stage ",
                 toString(stage), " for unknown request ", req_id);
    if (found == nullptr)
        return;
    Record& rec = *found;
    rec.stageCycles[static_cast<std::size_t>(rec.stage)] +=
        now - rec.stageStart;
    rec.stage = stage;
    rec.stageStart = now;
}

void
MemProfiler::endRequest(std::uint32_t req_id, Cycle now)
{
    if (req_id == 0)
        return;
    Record* found = find(req_id);
    BSCHED_CHECK(found != nullptr,
                 "mem profiler: completion for unknown request ", req_id);
    if (found == nullptr)
        return;
    Record& rec = *found;
    // Contract: a request completes out of its final (response-network)
    // stage — anything else means a component skipped its stage hook.
    BSCHED_CHECK(rec.stage == MemStage::NocResponse,
                 "mem profiler: request ", req_id,
                 " completed with unclosed stage ", toString(rec.stage));
    rec.stageCycles[static_cast<std::size_t>(rec.stage)] +=
        now - rec.stageStart;

    const std::uint64_t e2e = now - rec.begin;
    std::uint64_t stage_sum = 0;
    for (std::uint64_t cycles : rec.stageCycles)
        stage_sum += cycles;
    // Conservation by construction: every cycle of the request's life
    // was attributed to exactly one stage.
    BSCHED_INVARIANT(stage_sum == e2e, "mem profiler: request ", req_id,
                     " stage cycles (", stage_sum,
                     ") diverge from end-to-end latency (", e2e, ")");

    if (rec.core >= cores_.size())
        fatal("mem profiler: request from core ", rec.core,
              " but attached with ", cores_.size(), " cores");
    StageProfile& core_prof = cores_[rec.core];
    core_prof.endToEnd.record(e2e);
    for (std::size_t s = 0; s < kNumMemStages; ++s)
        core_prof.stages[s].record(rec.stageCycles[s]);
    if (rec.kernelId != kInvalidId) {
        StageProfile& kern_prof = kernels_[rec.kernelId];
        kern_prof.endToEnd.record(e2e);
        for (std::size_t s = 0; s < kNumMemStages; ++s)
            kern_prof.stages[s].record(rec.stageCycles[s]);
    }
    ++completed_;
    --inFlight_;
    rec.live = false;
    while (!outstanding_.empty() && !outstanding_.front().live) {
        outstanding_.pop_front();
        ++firstId_;
    }
}

std::int64_t
MemProfiler::ctaKeyOf(std::uint32_t req_id) const
{
    const Record* rec = find(req_id);
    return rec != nullptr ? rec->ctaKey : -1;
}

void
MemProfiler::onEviction(MemLevel level, std::int64_t evictor,
                        std::int64_t victim, std::uint32_t distinct_owners)
{
    InterferenceCounts& counts =
        interference_[static_cast<std::size_t>(level)];
    ++counts.evictions;
    if (victim >= 0 && evictor >= 0 && victim != evictor)
        ++counts.crossCtaEvictions;
    counts.setOccupancy.record(distinct_owners);
}

StageProfile
MemProfiler::total() const
{
    StageProfile sum;
    for (const StageProfile& core : cores_)
        sum.accumulate(core);
    return sum;
}

namespace {

void
writeHistogram(std::ostream& os, const LatencyHistogram& h)
{
    os << "{\"total\":" << h.total() << ",\"sum\":" << h.sum()
       << ",\"min\":" << h.min() << ",\"max\":" << h.max()
       << ",\"mean\":" << jsonNumber(h.mean()) << ",\"buckets\":[";
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
        if (i > 0)
            os << ",";
        os << h.bucket(i);
    }
    os << "]}";
}

void
writeStageProfile(std::ostream& os, const StageProfile& prof)
{
    os << "{\"completed\":" << prof.completed() << ",\"end_to_end\":";
    writeHistogram(os, prof.endToEnd);
    os << ",\"stages\":{";
    for (std::size_t s = 0; s < kNumMemStages; ++s) {
        if (s > 0)
            os << ",";
        os << "\"" << toString(static_cast<MemStage>(s)) << "\":";
        writeHistogram(os, prof.stages[s]);
    }
    os << "}}";
}

void
writeInterference(std::ostream& os, const MemProfiler& prof)
{
    os << "{";
    for (std::size_t l = 0; l < kNumMemLevels; ++l) {
        if (l > 0)
            os << ",";
        const MemLevel level = static_cast<MemLevel>(l);
        const InterferenceCounts& c = prof.interference(level);
        os << "\"" << toString(level) << "\":{\"evictions\":" << c.evictions
           << ",\"cross_cta_evictions\":" << c.crossCtaEvictions
           << ",\"cross_cta_fraction\":" << jsonNumber(c.crossCtaFraction())
           << ",\"set_occupancy\":";
        writeHistogram(os, c.setOccupancy);
        os << ",\"mshr_occupancy\":";
        writeHistogram(os, c.mshrOccupancy);
        os << "}";
    }
    os << "}";
}

void
writePoint(std::ostream& os, const MemProfilePoint& point)
{
    const MemProfiler& prof = *point.prof;
    os << "{\"label\":\"" << jsonEscape(point.label) << "\",\"params\":{";
    bool first = true;
    for (const auto& [name, value] : point.params) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":" << jsonNumber(value);
    }
    os << "},\"begun\":" << prof.begunRequests()
       << ",\"completed\":" << prof.completedRequests()
       << ",\"outstanding\":" << prof.outstandingRequests()
       << ",\"total\":";
    writeStageProfile(os, prof.total());
    os << ",\"interference\":";
    writeInterference(os, prof);
    os << ",\"kernels\":[";
    first = true;
    for (const auto& [kernel, kern_prof] : prof.kernels()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"kernel\":" << kernel << ",\"profile\":";
        writeStageProfile(os, kern_prof);
        os << "}";
    }
    os << "],\"cores\":[";
    for (std::uint32_t c = 0; c < prof.numCores(); ++c) {
        if (c > 0)
            os << ",";
        os << "\n{\"core\":" << c << ",\"profile\":";
        writeStageProfile(os, prof.core(c));
        os << "}";
    }
    os << "]}";
}

} // namespace

void
writeMemProfileJson(std::ostream& os,
                    const std::vector<MemProfilePoint>& points,
                    const std::string& label)
{
    os << "{\"schema\":\"bsched-memprofile-v1\",\"label\":\""
       << jsonEscape(label) << "\",\"stages\":[";
    for (std::size_t s = 0; s < kNumMemStages; ++s) {
        if (s > 0)
            os << ",";
        os << "\"" << toString(static_cast<MemStage>(s)) << "\"";
    }
    os << "],\"bucket_bounds\":[";
    for (std::size_t i = 0; i < LatencyHistogram::kFiniteBuckets; ++i) {
        if (i > 0)
            os << ",";
        os << LatencyHistogram::bound(i);
    }
    os << "],\"points\":[";
    bool first = true;
    for (const MemProfilePoint& point : points) {
        if (point.prof == nullptr)
            fatal("writeMemProfileJson: point '", point.label,
                  "' has no profiler");
        if (!first)
            os << ",";
        first = false;
        os << "\n";
        writePoint(os, point);
    }
    os << "]}\n";
}

void
writeMemProfileJson(std::ostream& os, const MemProfiler& prof,
                    const std::string& label)
{
    MemProfilePoint point;
    point.label = label;
    point.prof = &prof;
    writeMemProfileJson(os, {point}, label);
}

} // namespace bsched
