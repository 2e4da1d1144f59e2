/**
 * @file
 * Warp-issue selection policies. Each SIMT core runs one scheduler
 * instance per issue slot; a scheduler owns the warps whose id is
 * congruent to its slot index.
 *
 *  - LRR: loose round-robin over ready warps.
 *  - GTO: greedy-then-oldest — keep issuing from the last warp until it
 *    stalls, then fall back to the oldest (by CTA arrival, then warp id).
 *    GTO's greediness is what makes the LCS issue-ratio estimator work.
 *  - BAWS: block-aware warp scheduling — greedy-then-oldest across the
 *    CTA *blocks* BCS dispatched together, round-robin within a block so
 *    paired CTAs progress at the same rate and reuse each other's lines.
 *    Its walk is one pass over the slot's CTAs that tests a CTA's warps
 *    only while the CTA outranks the best issuable one found so far; the
 *    per-block rotation is a flat table sorted by block.
 *
 * Every policy is a walk: it visits the slot's warps in its own priority
 * order and stops at the first one the caller's issuable() test accepts.
 * The core's test reads only its exact per-warp issue state (opcode,
 * scoreboard wake, dead/barrier/live gate; SimtCore::IssueState) and
 * its port budgets, so a visit never loads the Warp record; only the
 * policies' tie-breaks read the table in IssueView::warps. The core's
 * issue stage walks each awake slot once per cycle; a slot
 * that issues nothing has had every live warp visited by then, and
 * sleeps until a wake event or the earliest time one of its refusals
 * lifts (SimtCore::slotStalls_), since until then its walk would find
 * the same.
 */

#ifndef BSCHED_CORE_WARP_SCHED_HH
#define BSCHED_CORE_WARP_SCHED_HH

#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/warp.hh"
#include "sim/config.hh"

namespace bsched {

/** The warps of one CTA in an issue slot's age order: byAge[begin, end). */
struct IssueCta
{
    std::uint64_t block;  ///< dispatch block (Warp::blockSeq)
    std::uint64_t ctaSeq; ///< core-local arrival order
    std::uint32_t hwCta;  ///< index into IssueView::ctaIssued
    std::uint32_t begin;
    std::uint32_t end;
};

/**
 * One issue slot's candidate warps, in the orders the policies walk.
 * A CTA's warps share one dispatch block.
 */
struct IssueView
{
    /** The core's full warp table (tie-break metadata). */
    const std::vector<Warp>& warps;
    /** Candidate warp ids, ascending. May name invalid slots. */
    std::span<const int> byId;
    /** The valid candidates oldest first: ascending (ctaSeq, warpInCta). */
    std::span<const int> byAge;
    /** byAge cut into its CTAs (groupByCta()); BAWS only. */
    std::span<const IssueCta> ctas;
    /** Instructions each CTA issued over every slot of the core, indexed
     *  by IssueCta::hwCta; BAWS only. */
    std::span<const std::uint64_t> ctaIssued;
};

/** Cut @p by_age into one IssueCta per CTA (hwCta from the table). */
void groupByCta(std::span<const int> by_age, const std::vector<Warp>& warps,
                std::vector<IssueCta>& out);

/** Non-owning reference to a caller's "can this warp issue now?" test. */
class IssueTest
{
  public:
    template <class F>
    explicit IssueTest(F& test)
        : ctx_(&test),
          fn_([](void* ctx, int warp_id) {
              return (*static_cast<F*>(ctx))(warp_id);
          })
    {}

    bool operator()(int warp_id) const { return fn_(ctx_, warp_id); }

  private:
    void* ctx_;
    bool (*fn_)(void*, int);
};

/**
 * Strategy interface: choose the warp a slot issues. Each policy's walk
 * is the template walkWith(), which the core instantiates with its own
 * issuable() test so the test inlines; walk() is the same walk through
 * a type-erased test.
 */
class WarpScheduler
{
  public:
    virtual ~WarpScheduler() = default;

    /**
     * Visit @p view's warps in this policy's priority order and return
     * the first that @p issuable accepts, or -1 if none does. Scheduler
     * state changes only when a warp is returned. issuable() must hold
     * only for live warps, and is free of decision side effects, so a
     * walk may test a warp more than once.
     */
    virtual int walk(const IssueView& view, IssueTest issuable) = 0;

    /**
     * Pick a warp id from @p ready (non-empty, ascending, live warp ids):
     * the walk over exactly those warps. @p warps is the full warp table.
     */
    int pick(const std::vector<int>& ready, const std::vector<Warp>& warps);

    /** Called after the chosen warp actually issued. */
    virtual void
    notifyIssued(int warp_id, const std::vector<Warp>& warps)
    {
        (void)warp_id;
        (void)warps;
    }

    /**
     * Called by the core when the last resident CTA of dispatch-block
     * @p block retires, so schedulers can drop per-block state. Without
     * this, BAWS's per-block rotation table would grow with every block
     * the core ever ran.
     */
    virtual void notifyBlockRetired(std::uint64_t block) { (void)block; }

    /** Clear greedy/rotation state (core reset). */
    virtual void reset() {}

    /** Factory keyed by configuration. */
    static std::unique_ptr<WarpScheduler> create(WarpSchedKind kind,
                                                 std::uint32_t
                                                     two_level_active = 8);

  private:
    std::vector<int> ageScratch_; ///< pick()'s ready set, oldest first
};

/** Loose round-robin. */
class LrrScheduler : public WarpScheduler
{
  public:
    int
    walk(const IssueView& view, IssueTest issuable) override
    {
        return walkWith(view, issuable);
    }

    /** From the first id past the last issued warp, wrapping. */
    template <class Test>
    int
    walkWith(const IssueView& view, Test& issuable)
    {
        const std::span<const int> ids = view.byId;
        const auto start = static_cast<std::size_t>(
            std::upper_bound(ids.begin(), ids.end(), lastIssued_) -
            ids.begin());
        for (std::size_t i = start; i < ids.size(); ++i) {
            if (issuable(ids[i]))
                return ids[i];
        }
        for (std::size_t i = 0; i < start; ++i) {
            if (issuable(ids[i]))
                return ids[i];
        }
        return -1;
    }

    void notifyIssued(int warp_id, const std::vector<Warp>& warps) override;
    void reset() override { lastIssued_ = -1; }

    int lastIssued() const { return lastIssued_; }

  private:
    int lastIssued_ = -1;
};

/** Greedy-then-oldest. */
class GtoScheduler : public WarpScheduler
{
  public:
    int
    walk(const IssueView& view, IssueTest issuable) override
    {
        return walkWith(view, issuable);
    }

    /** The greedy slot first, whichever warp occupies it now; then the
     *  oldest. */
    template <class Test>
    int
    walkWith(const IssueView& view, Test& issuable)
    {
        if (lastIssued_ >= 0 && issuable(lastIssued_))
            return lastIssued_;
        for (int id : view.byAge) {
            if (issuable(id))
                return id;
        }
        return -1;
    }

    void notifyIssued(int warp_id, const std::vector<Warp>& warps) override;
    void reset() override { lastIssued_ = -1; }

    int lastIssued() const { return lastIssued_; }

  private:
    int lastIssued_ = -1;
};

/**
 * Two-level round-robin (Narasiman et al., MICRO 2011 flavour): a small
 * active set issues round-robin; a warp that stops appearing in the
 * ready list (long stall) is demoted and the oldest ready outsider is
 * promoted. Keeps warps at staggered progress without GTO's strict age
 * priority.
 */
class TwoLevelScheduler : public WarpScheduler
{
  public:
    explicit TwoLevelScheduler(std::uint32_t active_size)
        : activeSize_(active_size)
    {}

    int
    walk(const IssueView& view, IssueTest issuable) override
    {
        return walkWith(view, issuable);
    }

    /**
     * Round-robin among the active set in warp-id order, from the first
     * member past the last issued warp, wrapping; if no member can
     * issue, promote the oldest issuable outsider.
     */
    template <class Test>
    int
    walkWith(const IssueView& view, Test& issuable)
    {
        const std::vector<int>& ids = byId_;
        const auto start = static_cast<std::size_t>(
            std::upper_bound(ids.begin(), ids.end(), lastIssued_) -
            ids.begin());
        int chosen = -1;
        for (std::size_t i = start; i < ids.size() && chosen < 0; ++i) {
            if (issuable(ids[i]))
                chosen = ids[i];
        }
        for (std::size_t i = 0; i < start && chosen < 0; ++i) {
            if (issuable(ids[i]))
                chosen = ids[i];
        }
        const bool promote = chosen < 0;
        for (std::size_t i = 0; i < view.byAge.size() && chosen < 0; ++i) {
            if (issuable(view.byAge[i]))
                chosen = view.byAge[i];
        }
        if (chosen >= 0)
            admit(chosen, promote, view.warps);
        return chosen;
    }

    void notifyIssued(int warp_id, const std::vector<Warp>& warps) override;
    void reset() override;

    /** Current active set, in promotion order (tests). */
    const std::vector<int>& activeSet() const { return active_; }
    int lastIssued() const { return lastIssued_; }

  private:
    /** Set-keeping on an issuing walk: prune dead members, and promote
     *  @p chosen (demoting the oldest member if full) if @p promote. */
    void admit(int chosen, bool promote, const std::vector<Warp>& warps);

    std::uint32_t activeSize_;
    std::vector<int> active_; ///< promotion order (demotion picks front)
    std::vector<int> byId_;   ///< active_ sorted by warp id
    int lastIssued_ = -1;
};

/** Block-aware warp scheduling (greedy blocks, fair within a block). */
class BawsScheduler : public WarpScheduler
{
  public:
    /** walkWith(); a view without CTA grouping (pick()) gets one built
     *  from the table. */
    int walk(const IssueView& view, IssueTest issuable) override;

    /**
     * Greedy at block granularity: the last block, then the oldest.
     * Within a block, serve the *laggard* CTA first so the paired CTAs
     * stay at even progress (the shared halo lines are still resident
     * when the partner needs them), but stay greedy *within* the chosen
     * CTA: its rotate warp if it can issue, else its oldest.
     *
     * One pass over the CTAs keeps the best-ranked one with an issuable
     * warp; a CTA's warps are tested only if its rank beats that best
     * so far. Ranks are distinct (ctaSeq), so this is the first CTA in
     * rank order that can issue, and a fruitless walk tests every warp.
     */
    template <class Test>
    int
    walkWith(const IssueView& view, Test& issuable)
    {
        const IssueCta* best = nullptr;
        Rank best_rank{};
        int best_oldest = -1;
        for (const IssueCta& cta : view.ctas) {
            const Rank rank{lastBlock_ == kNoBlock || cta.block != lastBlock_,
                            cta.block, view.ctaIssued[cta.hwCta],
                            cta.ctaSeq};
            if (best != nullptr && rank >= best_rank)
                continue;
            for (std::uint32_t i = cta.begin; i < cta.end; ++i) {
                if (issuable(view.byAge[i])) {
                    best = &cta;
                    best_rank = rank;
                    best_oldest = view.byAge[i];
                    break;
                }
            }
        }
        if (best == nullptr)
            return -1;
        const int rotate = rotateWarp(*best, view.warps);
        if (rotate >= 0 && rotate != best_oldest && issuable(rotate))
            return rotate;
        return best_oldest;
    }

    void notifyIssued(int warp_id, const std::vector<Warp>& warps) override;
    void notifyBlockRetired(std::uint64_t block) override;
    void reset() override;

    /** Block issued from last; ~0 if none (tests). */
    std::uint64_t lastBlock() const { return lastBlock_; }
    /** A block's round-robin pointer: the warp it last issued. */
    struct Rotation
    {
        std::uint64_t block;
        int warp;

        bool operator==(const Rotation&) const = default;
    };

    /** Live per-block rotation pointers, ascending by block (tests). */
    const std::vector<Rotation>& rotation() const { return rotate_; }

  private:
    static constexpr std::uint64_t kNoBlock = ~0ULL;

    /** A CTA's walk priority: the last block, block, progress, age. */
    struct Rank
    {
        bool otherBlock;
        std::uint64_t block;
        std::uint64_t progress;
        std::uint64_t ctaSeq;

        auto operator<=>(const Rank&) const = default;
    };

    /** The block's rotate warp if it belongs to @p cta, else -1. */
    int rotateWarp(const IssueCta& cta, const std::vector<Warp>& warps) const;

    std::uint64_t lastBlock_ = kNoBlock;
    /**
     * Per-block round-robin pointers, sorted by block: a core runs a
     * handful of blocks at once, so a flat vector beats a tree, and
     * iteration order never inherits hash order.
     */
    std::vector<Rotation> rotate_;
    std::vector<IssueCta> ctaScratch_;         ///< walk() grouping
    std::vector<std::uint64_t> issuedScratch_; ///< walk() progress
};

} // namespace bsched

#endif // BSCHED_CORE_WARP_SCHED_HH
