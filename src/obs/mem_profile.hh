/**
 * @file
 * Request-level memory latency attribution — the fifth pillar of the
 * observability subsystem.
 *
 * The cycle profiler (obs/profile.hh) shows *that* memory stalls
 * dominate past a kernel's optimal CTA count; this profiler shows
 * *where* each memory request spends that time and *which CTAs evict
 * each other's cache lines* — the interference mechanism LCS exploits.
 *
 * The profiled unit is one L1D read-miss fetch: the request a core
 * injects into the memory system when a load misses its L1 and
 * allocates a new MSHR entry. Each fetch carries a `reqId` through
 * `ldst_unit → interconnect → mem_partition → dram` and back; the
 * components report stage transitions so the profiler can attribute
 * every cycle between allocation and fill delivery to exactly one
 * pipeline stage:
 *
 *  - `core_q`    waiting in the core's outgoing request buffer
 *  - `noc_req`   request-network traversal (latency + ejection backlog)
 *  - `l2_q`      L2 input queue, pipeline latency and head-of-line
 *                retries until the tag access that disposes the request
 *  - `dram_q`    waiting in the DRAM channel queue (primary L2 miss)
 *  - `dram_svc`  bank access + data bus until the fill reaches the L2
 *  - `l2_mshr`   merged secondary miss waiting on an in-flight fetch
 *  - `l2_ret`    reply buffered in the partition for the network
 *  - `noc_resp`  response-network traversal until delivery at the core
 *
 * Two conservation laws hold by construction and are contract-checked:
 * per request the stage durations sum exactly to the end-to-end
 * latency, and the end-to-end histogram total equals the completed
 * request count. A request may not complete without its final
 * (`noc_resp`) stage open — an unclosed stage is a BSCHED_CHECK
 * violation.
 *
 * Latencies are binned into deterministic fixed-boundary power-of-two
 * histograms, aggregated per requesting core and per kernel. On top of
 * the latency path the profiler counts inter-CTA interference: L1/L2
 * evictions where the evicting CTA differs from the victim line's
 * owner, the number of distinct CTAs resident in a set at eviction
 * time, and time-weighted MSHR-occupancy histograms for both levels.
 *
 * Like the tracer/sampler/profiler, the MemProfiler is owned by the
 * caller and attached through Observer; with no profiler attached every
 * hook in the memory path is a single untaken null-pointer branch.
 */

#ifndef BSCHED_OBS_MEM_PROFILE_HH
#define BSCHED_OBS_MEM_PROFILE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace bsched {

/** Pipeline stage a profiled memory request can occupy. */
enum class MemStage : std::uint8_t
{
    CoreQueue = 0, ///< core outgoing request buffer
    NocRequest,    ///< request network
    L2Queue,       ///< partition input queue + L2 lookup retries
    DramQueue,     ///< DRAM channel queue (primary L2 miss)
    DramService,   ///< bank access + data bus until the L2 fill
    L2Mshr,        ///< merged secondary waiting on an in-flight fetch
    L2Return,      ///< partition reply buffer
    NocResponse,   ///< response network until core delivery
};

/** Number of MemStage values (array sizing). */
inline constexpr std::size_t kNumMemStages = 8;

/** Stable stage name used in the exported JSON ("dram_q"). */
const char* toString(MemStage stage);

/** Cache level an interference observation belongs to. */
enum class MemLevel : std::uint8_t
{
    L1 = 0,
    L2,
};

inline constexpr std::size_t kNumMemLevels = 2;

const char* toString(MemLevel level);

/**
 * Globally unique CTA key: kernel id in the upper half, linearized grid
 * CTA id in the lower. -1 marks "no owner" (untracked fill).
 */
inline std::int64_t
makeCtaKey(int kernel_id, std::uint32_t cta_id)
{
    return (static_cast<std::int64_t>(kernel_id) << 32) |
        static_cast<std::int64_t>(cta_id);
}

/**
 * Fixed-boundary histogram with power-of-two bucket upper bounds
 * (1, 2, 4, ..., 2^16) plus one overflow bucket. The boundaries are
 * compile-time constants, so two runs that observe the same values
 * always produce byte-identical serialized histograms.
 */
class LatencyHistogram
{
  public:
    /** Buckets with finite upper bounds; bucket i covers
     *  (bound(i-1), bound(i)]. One extra overflow bucket follows. */
    static constexpr std::size_t kFiniteBuckets = 17;
    static constexpr std::size_t kNumBuckets = kFiniteBuckets + 1;

    /** Inclusive upper bound of finite bucket @p i (2^i). */
    static constexpr std::uint64_t
    bound(std::size_t i)
    {
        return std::uint64_t{1} << i;
    }

    void
    record(std::uint64_t value)
    {
        record(value, 1);
    }

    /**
     * Record @p value @p n times in one update. Used to account
     * fast-forwarded spans whose per-cycle observation is constant
     * (e.g. MSHR occupancy); order-independent, so n batched updates
     * serialize identically to n singles.
     */
    void
    record(std::uint64_t value, std::uint64_t n)
    {
        if (n == 0)
            return;
        counts_[bucketOf(value)] += n;
        sum_ += value * n;
        if (count_ == 0 || value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
        count_ += n;
    }

    /** Bucket index @p value falls into. */
    static std::size_t
    bucketOf(std::uint64_t value)
    {
        // The smallest i with value <= 2^i; past 2^16, the overflow
        // bucket.
        if (value <= 1)
            return 0;
        return std::min<std::size_t>(std::bit_width(value - 1),
                                     kFiniteBuckets);
    }

    std::uint64_t total() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ > 0
            ? static_cast<double>(sum_) / static_cast<double>(count_)
            : 0.0;
    }

    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }

    void
    accumulate(const LatencyHistogram& other)
    {
        for (std::size_t i = 0; i < kNumBuckets; ++i)
            counts_[i] += other.counts_[i];
        sum_ += other.sum_;
        if (other.count_ > 0) {
            if (count_ == 0 || other.min_ < min_)
                min_ = other.min_;
            if (other.max_ > max_)
                max_ = other.max_;
        }
        count_ += other.count_;
    }

  private:
    std::array<std::uint64_t, kNumBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/** Latency aggregation of one bucket (a core, a kernel, or the total):
 *  end-to-end plus one histogram per pipeline stage. */
struct StageProfile
{
    LatencyHistogram endToEnd;
    std::array<LatencyHistogram, kNumMemStages> stages{};

    /** Completed requests binned into this bucket. */
    std::uint64_t completed() const { return endToEnd.total(); }

    /** Conservation: per-stage cycle sums must equal the end-to-end
     *  sum (each in-flight cycle is attributed to exactly one stage). */
    std::uint64_t
    stageCycleSum() const
    {
        std::uint64_t sum = 0;
        for (const LatencyHistogram& h : stages)
            sum += h.sum();
        return sum;
    }

    void
    accumulate(const StageProfile& other)
    {
        endToEnd.accumulate(other.endToEnd);
        for (std::size_t s = 0; s < kNumMemStages; ++s)
            stages[s].accumulate(other.stages[s]);
    }
};

/** Interference observations at one cache level. */
struct InterferenceCounts
{
    std::uint64_t evictions = 0;       ///< valid victims on fill
    std::uint64_t crossCtaEvictions = 0; ///< evictor CTA != victim CTA
    /** Distinct CTA owners resident in the victim set at eviction. */
    LatencyHistogram setOccupancy;
    /** Time-weighted MSHR occupancy (one sample per component-cycle). */
    LatencyHistogram mshrOccupancy;

    double
    crossCtaFraction() const
    {
        return evictions > 0 ? static_cast<double>(crossCtaEvictions) /
                static_cast<double>(evictions)
                             : 0.0;
    }
};

/** Request-level memory profiler (see the file comment). */
class MemProfiler
{
  public:
    MemProfiler() = default;

    /**
     * Called by the Gpu when the profiler is attached: records the core
     * count the per-core aggregation describes. Reattaching with a
     * different geometry is fatal.
     */
    void onAttach(std::uint32_t num_cores);

    // --- request lifecycle (hot path, only reached when attached) -------

    /**
     * Open a record for a new L1 read-miss fetch from @p core,
     * attributed to @p kernel_id / @p cta_key, with the `core_q` stage
     * open at @p now. Returns the nonzero request id the fetch carries
     * through the memory system.
     */
    std::uint32_t beginRequest(Cycle now, std::uint32_t core,
                               int kernel_id, std::int64_t cta_key);

    /**
     * Move request @p req_id into @p stage at @p now, attributing the
     * elapsed cycles to the stage it is leaving. No-op for req_id 0.
     */
    void enterStage(std::uint32_t req_id, MemStage stage, Cycle now);

    /**
     * Close request @p req_id at fill delivery. Contract-checks that
     * the final (`noc_resp`) stage is the one open and that the stage
     * durations sum to the end-to-end latency, then bins everything
     * into the per-core and per-kernel histograms.
     */
    void endRequest(std::uint32_t req_id, Cycle now);

    /** CTA key request @p req_id was issued for (-1 if unknown). */
    std::int64_t ctaKeyOf(std::uint32_t req_id) const;

    // --- interference observations --------------------------------------

    /**
     * Record a fill at @p level that evicted a valid line: @p evictor
     * is the filling CTA's key, @p victim the evicted line's owner key
     * (-1 when untracked), @p distinct_owners the number of distinct
     * CTA owners resident in the set at eviction time.
     */
    void onEviction(MemLevel level, std::int64_t evictor,
                    std::int64_t victim, std::uint32_t distinct_owners);

    /** Record one cycle of MSHR occupancy at @p level. */
    void
    recordMshrOccupancy(MemLevel level, std::uint32_t in_use)
    {
        interference_[static_cast<std::size_t>(level)]
            .mshrOccupancy.record(in_use);
    }

    /** Record @p n cycles of constant MSHR occupancy (a fast-forwarded
     *  span during which no request was allocated or filled). */
    void
    recordMshrOccupancySpan(MemLevel level, std::uint32_t in_use,
                            std::uint64_t n)
    {
        interference_[static_cast<std::size_t>(level)]
            .mshrOccupancy.record(in_use, n);
    }

    // --- queries ---------------------------------------------------------

    std::uint32_t numCores() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    std::uint64_t begunRequests() const { return begun_; }
    std::uint64_t completedRequests() const { return completed_; }

    /** Requests begun but not yet completed (0 after a drained run). */
    std::uint64_t
    outstandingRequests() const
    {
        return inFlight_;
    }

    /** Latency aggregation of @p core (requests it issued). */
    const StageProfile& core(std::uint32_t core) const
    {
        return cores_.at(core);
    }

    /** Per-kernel latency aggregations (kernel id order). */
    const std::map<int, StageProfile>& kernels() const { return kernels_; }

    /** Whole-machine latency aggregation (sum over cores). */
    StageProfile total() const;

    const InterferenceCounts& interference(MemLevel level) const
    {
        return interference_[static_cast<std::size_t>(level)];
    }

  private:
    struct Record
    {
        Cycle begin = 0;
        Cycle stageStart = 0;
        MemStage stage = MemStage::CoreQueue;
        std::uint32_t core = 0;
        int kernelId = kInvalidId;
        std::int64_t ctaKey = -1;
        std::array<std::uint64_t, kNumMemStages> stageCycles{};
        bool live = false;
    };

    /** The in-flight record of @p req_id; null if it is not in flight. */
    const Record* find(std::uint32_t req_id) const;
    Record*
    find(std::uint32_t req_id)
    {
        return const_cast<Record*>(std::as_const(*this).find(req_id));
    }

    std::vector<StageProfile> cores_;
    std::map<int, StageProfile> kernels_;
    std::array<InterferenceCounts, kNumMemLevels> interference_{};
    /**
     * Records by request id: ids are handed out in order, so request id
     * sits at index id - firstId_, and completed records are popped off
     * the front once every older request has completed too.
     */
    std::deque<Record> outstanding_;
    std::uint32_t firstId_ = 1; ///< request id of outstanding_.front()
    std::uint64_t inFlight_ = 0;
    std::uint32_t nextReqId_ = 1; ///< 0 marks an untracked request
    std::uint64_t begun_ = 0;
    std::uint64_t completed_ = 0;
};

/**
 * One point of a `bsched-memprofile-v1` artifact: a label, scalar
 * parameters (CTA limit, derived rates, ...) serialized in insertion
 * order, and the profiler holding the point's aggregations.
 */
struct MemProfilePoint
{
    std::string label;
    std::vector<std::pair<std::string, double>> params;
    const MemProfiler* prof = nullptr;
};

/**
 * Write @p points with the `bsched-memprofile-v1` schema. Deterministic
 * byte-for-byte: stages in declaration order, kernels and cores in id
 * order, histogram buckets in bound order.
 */
void writeMemProfileJson(std::ostream& os,
                         const std::vector<MemProfilePoint>& points,
                         const std::string& label);

/** Single-run convenience overload (the bench `--artifacts` path). */
void writeMemProfileJson(std::ostream& os, const MemProfiler& prof,
                         const std::string& label);

} // namespace bsched

#endif // BSCHED_OBS_MEM_PROFILE_HH
