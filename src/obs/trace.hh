/**
 * @file
 * Event tracer — the first pillar of the observability subsystem.
 *
 * Components record typed, fixed-size TraceEvents into per-track ring
 * buffers (one track per SIMT core, one per memory partition, one for
 * the whole GPU). A ring allocates nothing until its track records, then
 * grows on demand up to its capacity, after which each event overwrites
 * the oldest. Recording is amortized O(1) and guarded at every call
 * site by a null-pointer check, so a run without a Tracer attached pays
 * only an untaken branch.
 *
 * The buffers export Chrome `trace_event` JSON (the format consumed by
 * chrome://tracing and Perfetto): CTA and kernel lifetimes become
 * duration ("X") events, scheduler decisions become instant ("i")
 * events, and sampled gauges become counter ("C") tracks. One simulated
 * cycle maps to one microsecond of trace time.
 */

#ifndef BSCHED_OBS_TRACE_HH
#define BSCHED_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bsched {

class IntervalSampler;

/** Everything the simulator knows how to trace. */
enum class TraceEventKind : std::uint8_t
{
    KernelLaunch,    ///< gpu track; arg0 = grid CTAs
    KernelRetire,    ///< gpu track; span over the kernel's lifetime
    CtaDispatch,     ///< core track; arg0 = CTA id
    CtaComplete,     ///< core track; span; arg0 = CTA id, arg1 = issued
    LcsWindowClose,  ///< core track; arg0 = chosen n_opt, arg1 = n_max
    BcsPairForm,     ///< core track; arg0 = block seq, arg1 = block size
    DynctaAdjust,    ///< core track; arg0 = new target, arg1 = +1/-1
    CacheMissBurst,  ///< core/partition track; arg0 = burst length
    DramRowConflict, ///< partition track; arg0 = bank, arg1 = new row
    DrainRequest,    ///< gpu track; arg0 = 1 drain/0 resume, arg1 = cursor
    DrainComplete,   ///< gpu track; span over the drain; arg0 = CTAs left
    ServeArrival,    ///< tenant track; arg0 = request seq
    ServeQueued,     ///< tenant track; span release→admit; arg0 = seq
    ServeDispatching,///< tenant track; span admit→1st CTA; arg0 = seq
    ServeRunning,    ///< tenant track; span 1st CTA→finish; arg0 = seq
    ServeDrainVictim,///< tenant track; arg0 = victim kernel id
    PhaseChange,     ///< phase track; arg0 = new phase index, arg1 =
                     ///< core id (-1 = machine/kernel scope)
};

/** Stable event-kind name used in exported JSON ("cta.dispatch", ...). */
const char* toString(TraceEventKind kind);

/** True for kinds exported as Chrome duration ("X") events. */
bool isSpan(TraceEventKind kind);

/** One fixed-size trace record. */
struct TraceEvent
{
    Cycle cycle = 0; ///< event time; for spans, the *end* of the span
    Cycle duration = 0; ///< span length; 0 = instant event
    std::int64_t arg0 = 0;
    std::int64_t arg1 = 0;
    std::int32_t kernelId = kInvalidId;
    TraceEventKind kind = TraceEventKind::CtaDispatch;
};

/** Per-track ring-buffer event recorder with Chrome JSON export. */
class Tracer
{
  public:
    /** Default per-track capacity (events); oldest events are dropped. */
    static constexpr std::size_t kDefaultCapacity = 1 << 14;

    Tracer(std::uint32_t num_cores, std::uint32_t num_partitions,
           std::size_t capacity_per_track = kDefaultCapacity);

    // --- track ids -----------------------------------------------------
    std::uint32_t coreTrack(std::uint32_t core) const { return core; }
    std::uint32_t partitionTrack(std::uint32_t partition) const
    {
        return numCores_ + partition;
    }
    std::uint32_t gpuTrack() const { return numCores_ + numPartitions_; }
    std::uint32_t numTracks() const
    {
        return static_cast<std::uint32_t>(tracks_.size());
    }

    /**
     * Append a named track (e.g. one lane per serving tenant) after the
     * fixed core/partition/gpu tracks. Returns the new track id.
     */
    std::uint32_t addTrack(const std::string& name);

    /** Human-readable track name ("core3", "part0", "gpu", extras). */
    std::string trackName(std::uint32_t track) const;

    // --- recording -----------------------------------------------------

    /** Append @p event to @p track, dropping the oldest when full. */
    void record(std::uint32_t track, const TraceEvent& event);

    /** Events recorded (including any that were later dropped). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events evicted from full ring buffers. */
    std::uint64_t dropped() const { return dropped_; }

    /** Events currently held on @p track, oldest first. */
    std::vector<TraceEvent> events(std::uint32_t track) const;

    /** All retained events of @p kind across every track. */
    std::vector<TraceEvent> eventsOfKind(TraceEventKind kind) const;

    // --- export --------------------------------------------------------

    /**
     * Write Chrome trace_event JSON. If @p sampler is non-null its gauge
     * series are embedded as counter ("C") events on the gpu track.
     */
    void writeChromeTrace(std::ostream& os,
                          const IntervalSampler* sampler = nullptr) const;

  private:
    /** Events in buf[head, end) then buf[0, head). head moves only
     *  once the ring holds capacity_ events. */
    struct Ring
    {
        std::vector<TraceEvent> buf;
        std::size_t head = 0;  ///< index of the oldest event
    };

    std::uint32_t numCores_;
    std::uint32_t numPartitions_;
    std::size_t capacity_;
    std::vector<Ring> tracks_;
    std::vector<std::string> extraNames_; ///< names of addTrack() tracks
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace bsched

#endif // BSCHED_OBS_TRACE_HH
