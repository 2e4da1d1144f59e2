/**
 * @file
 * Differential test of the warp schedulers' priority walks against a
 * reference model: the build-a-ready-list-then-pick() policies the walks
 * replaced, kept here verbatim. Seeded random warp tables evolve the way
 * a core's do — CTAs launch into the lowest free warp slots and retire,
 * warps finish, wait at barriers and get recycled — and every cycle each
 * slot's walk (over the core's view: the slot's ids, its age order cut
 * into CTAs and per-CTA issue counts) and its pick() adapter must choose
 * the same warp as the reference and leave the same scheduler state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/warp_sched.hh"
#include "sim/rng.hh"

namespace bsched {
namespace {

// --- Reference model: the replaced pick() policies ----------------------

std::pair<std::uint64_t, std::uint32_t>
ageKey(const Warp& warp)
{
    return {warp.ctaSeq, warp.warpInCta};
}

int
oldest(const std::vector<int>& ready, const std::vector<Warp>& warps)
{
    int best = ready.front();
    for (std::size_t i = 1; i < ready.size(); ++i) {
        if (ageKey(warps[static_cast<std::size_t>(ready[i])]) <
            ageKey(warps[static_cast<std::size_t>(best)])) {
            best = ready[i];
        }
    }
    return best;
}

bool
contains(const std::vector<int>& ready, int warp_id)
{
    return std::find(ready.begin(), ready.end(), warp_id) != ready.end();
}

struct RefLrr
{
    int lastIssued = -1;

    int
    pick(const std::vector<int>& ready, const std::vector<Warp>&)
    {
        for (int id : ready) {
            if (id > lastIssued)
                return id;
        }
        return ready.front();
    }
    void notifyIssued(int id, const std::vector<Warp>&) { lastIssued = id; }
    void notifyBlockRetired(std::uint64_t) {}
};

struct RefGto
{
    int lastIssued = -1;

    int
    pick(const std::vector<int>& ready, const std::vector<Warp>& warps)
    {
        if (lastIssued >= 0 && contains(ready, lastIssued))
            return lastIssued;
        return oldest(ready, warps);
    }
    void notifyIssued(int id, const std::vector<Warp>&) { lastIssued = id; }
    void notifyBlockRetired(std::uint64_t) {}
};

struct RefTwoLevel
{
    std::uint32_t activeSize = 0;
    std::vector<int> active;
    int lastIssued = -1;

    int
    pick(const std::vector<int>& ready, const std::vector<Warp>& warps)
    {
        std::erase_if(active, [&](int id) {
            return !warps[static_cast<std::size_t>(id)].live();
        });
        int first_active = -1;
        for (int id : ready) {
            if (std::find(active.begin(), active.end(), id) == active.end())
                continue;
            if (first_active < 0)
                first_active = id;
            if (id > lastIssued)
                return id;
        }
        if (first_active >= 0)
            return first_active;
        const int promoted = oldest(ready, warps);
        if (active.size() >= activeSize)
            active.erase(active.begin());
        active.push_back(promoted);
        return promoted;
    }
    void
    notifyIssued(int id, const std::vector<Warp>&)
    {
        lastIssued = id;
        if (std::find(active.begin(), active.end(), id) == active.end())
            active.push_back(id);
    }
    void notifyBlockRetired(std::uint64_t) {}
};

struct RefBaws
{
    static constexpr std::uint64_t kNoBlock = ~0ULL;
    std::uint64_t lastBlock = kNoBlock;
    std::map<std::uint64_t, int> rotate;

    int
    pickWithinBlock(std::uint64_t block, const std::vector<int>& ready,
                    const std::vector<Warp>& warps)
    {
        std::map<std::uint64_t, std::uint64_t> progress;
        for (const Warp& peer : warps) {
            if (peer.valid && peer.blockSeq == block)
                progress[peer.ctaSeq] += peer.instrsIssued;
        }
        std::uint64_t best_cta = ~0ULL;
        std::uint64_t best_progress = ~0ULL;
        for (int id : ready) {
            const Warp& warp = warps[static_cast<std::size_t>(id)];
            if (warp.blockSeq != block)
                continue;
            const std::uint64_t p = progress[warp.ctaSeq];
            if (p < best_progress ||
                (p == best_progress && warp.ctaSeq < best_cta)) {
                best_progress = p;
                best_cta = warp.ctaSeq;
            }
        }
        if (best_cta == ~0ULL)
            return -1;
        const int last = rotate.count(block) ? rotate[block] : -1;
        int oldest_id = -1;
        std::uint32_t oldest_win = ~0u;
        for (int id : ready) {
            const Warp& warp = warps[static_cast<std::size_t>(id)];
            if (warp.blockSeq != block || warp.ctaSeq != best_cta)
                continue;
            if (id == last)
                return id;
            if (warp.warpInCta < oldest_win) {
                oldest_win = warp.warpInCta;
                oldest_id = id;
            }
        }
        return oldest_id;
    }

    int
    pick(const std::vector<int>& ready, const std::vector<Warp>& warps)
    {
        if (lastBlock != kNoBlock) {
            const int id = pickWithinBlock(lastBlock, ready, warps);
            if (id >= 0)
                return id;
        }
        std::uint64_t best_block = kNoBlock;
        for (int id : ready) {
            const Warp& warp = warps[static_cast<std::size_t>(id)];
            if (warp.blockSeq < best_block)
                best_block = warp.blockSeq;
        }
        const int id = pickWithinBlock(best_block, ready, warps);
        if (id >= 0)
            return id;
        return oldest(ready, warps);
    }
    void
    notifyIssued(int id, const std::vector<Warp>& warps)
    {
        lastBlock = warps[static_cast<std::size_t>(id)].blockSeq;
        rotate[lastBlock] = id;
    }
    void
    notifyBlockRetired(std::uint64_t block)
    {
        rotate.erase(block);
        if (lastBlock == block)
            lastBlock = kNoBlock;
    }
};

// --- State comparison --------------------------------------------------

void
expectSameState(const RefLrr& ref, const WarpScheduler& sched)
{
    EXPECT_EQ(ref.lastIssued,
              dynamic_cast<const LrrScheduler&>(sched).lastIssued());
}

void
expectSameState(const RefGto& ref, const WarpScheduler& sched)
{
    EXPECT_EQ(ref.lastIssued,
              dynamic_cast<const GtoScheduler&>(sched).lastIssued());
}

void
expectSameState(const RefTwoLevel& ref, const WarpScheduler& sched)
{
    const auto& tl = dynamic_cast<const TwoLevelScheduler&>(sched);
    EXPECT_EQ(ref.lastIssued, tl.lastIssued());
    EXPECT_EQ(ref.active, tl.activeSet());
}

void
expectSameState(const RefBaws& ref, const WarpScheduler& sched)
{
    const auto& baws = dynamic_cast<const BawsScheduler&>(sched);
    EXPECT_EQ(ref.lastBlock, baws.lastBlock());
    EXPECT_EQ(ref.rotate, baws.rotation());
}

// --- A core-shaped warp table ------------------------------------------

constexpr std::size_t kWarps = 48;
constexpr std::size_t kSlots = 2;
constexpr std::size_t kCtas = 8;

/**
 * The warp-side state a core keeps, evolved the way SimtCore evolves it:
 * lowest-free-slot placement, per-slot age order appended at launch and
 * pruned at retirement (and regrouped by CTA), per-CTA issue counters
 * over every slot.
 */
struct CoreModel
{
    std::vector<Warp> warps = std::vector<Warp>(kWarps);
    std::vector<std::vector<int>> slotIds =
        std::vector<std::vector<int>>(kSlots);
    std::vector<std::vector<int>> ageOrder =
        std::vector<std::vector<int>>(kSlots);
    std::vector<std::vector<IssueCta>> slotCtas =
        std::vector<std::vector<IssueCta>>(kSlots);
    std::vector<std::uint64_t> ctaIssued = std::vector<std::uint64_t>(kCtas);
    std::vector<bool> ctaValid = std::vector<bool>(kCtas);
    std::vector<std::uint64_t> ctaBlock = std::vector<std::uint64_t>(kCtas);
    std::uint64_t ctaSeq = 0;
    std::uint64_t blockSeq = 0;

    CoreModel()
    {
        for (std::size_t w = 0; w < kWarps; ++w)
            slotIds[w % kSlots].push_back(static_cast<int>(w));
    }

    std::size_t
    freeWarps() const
    {
        return static_cast<std::size_t>(std::count_if(
            warps.begin(), warps.end(),
            [](const Warp& w) { return !w.valid; }));
    }

    /** Launch a dispatch block of @p ctas CTAs with @p per_cta warps. */
    bool
    launchBlock(std::uint32_t ctas, std::uint32_t per_cta, int kernel)
    {
        const auto free_ctas = static_cast<std::size_t>(
            std::count(ctaValid.begin(), ctaValid.end(), false));
        if (free_ctas < ctas || freeWarps() < ctas * per_cta)
            return false;
        const std::uint64_t block = blockSeq++;
        for (std::uint32_t c = 0; c < ctas; ++c) {
            const auto hw = static_cast<std::size_t>(
                std::find(ctaValid.begin(), ctaValid.end(), false) -
                ctaValid.begin());
            ctaValid[hw] = true;
            ctaBlock[hw] = block;
            ctaIssued[hw] = 0;
            const std::uint64_t seq = ctaSeq++;
            std::uint32_t placed = 0;
            for (std::size_t w = 0; w < kWarps && placed < per_cta; ++w) {
                Warp& warp = warps[w];
                if (warp.valid)
                    continue;
                warp.clear();
                warp.valid = true;
                warp.hwCta = static_cast<int>(hw);
                warp.kernelId = kernel;
                warp.warpInCta = placed++;
                warp.ctaSeq = seq;
                warp.blockSeq = block;
                ageOrder[w % kSlots].push_back(static_cast<int>(w));
            }
        }
        regroup();
        return true;
    }

    /** Retire hardware CTA @p hw; true if its block has no CTA left. */
    bool
    retire(std::size_t hw)
    {
        for (auto& order : ageOrder) {
            std::erase_if(order, [&](int id) {
                return warps[static_cast<std::size_t>(id)].hwCta ==
                    static_cast<int>(hw);
            });
        }
        regroup();
        for (Warp& warp : warps) {
            if (warp.valid && warp.hwCta == static_cast<int>(hw))
                warp.clear();
        }
        ctaValid[hw] = false;
        for (std::size_t c = 0; c < kCtas; ++c) {
            if (ctaValid[c] && ctaBlock[c] == ctaBlock[hw])
                return false;
        }
        return true;
    }

    void
    regroup()
    {
        for (std::size_t s = 0; s < kSlots; ++s)
            groupByCta(ageOrder[s], warps, slotCtas[s]);
    }

    /** The core's view of slot @p s. */
    IssueView
    view(std::size_t s) const
    {
        return {warps, slotIds[s], ageOrder[s], slotCtas[s], ctaIssued};
    }

    void
    issued(int id)
    {
        Warp& warp = warps[static_cast<std::size_t>(id)];
        ++warp.instrsIssued;
        ++ctaIssued[static_cast<std::size_t>(warp.hwCta)];
    }
};

/**
 * Drive @p kind's walk, its pick() adapter and the reference @p Ref in
 * lock step over @p cycles cycles of a random core drawn from @p seed.
 */
template <class Ref>
void
runDifferential(WarpSchedKind kind, std::uint64_t seed, int cycles)
{
    SCOPED_TRACE(testing::Message() << toString(kind) << " seed " << seed);
    Rng rng(seed);
    CoreModel core;
    const std::uint32_t active_size =
        static_cast<std::uint32_t>(2 + rng.nextBelow(6));
    std::vector<std::unique_ptr<WarpScheduler>> walks;
    std::vector<std::unique_ptr<WarpScheduler>> picks;
    std::vector<Ref> refs(kSlots);
    for (std::size_t s = 0; s < kSlots; ++s) {
        walks.push_back(WarpScheduler::create(kind, active_size));
        picks.push_back(WarpScheduler::create(kind, active_size));
        if constexpr (std::is_same_v<Ref, RefTwoLevel>)
            refs[s].activeSize = active_size;
    }
    const std::uint32_t issue_pct =
        static_cast<std::uint32_t>(10 + rng.nextBelow(80));
    int issues = 0;
    for (int cycle = 0; cycle < cycles; ++cycle) {
        // Dispatch: one or two CTAs per block, mixed kernels.
        if (rng.nextBelow(4) == 0) {
            core.launchBlock(static_cast<std::uint32_t>(1 + rng.nextBelow(2)),
                             static_cast<std::uint32_t>(1 + rng.nextBelow(8)),
                             static_cast<int>(rng.nextBelow(3)));
        }
        // Warps finish, arrive at and leave barriers.
        for (Warp& warp : core.warps) {
            if (!warp.live())
                continue;
            if (rng.nextBelow(40) == 0)
                warp.done = true;
            else if (rng.nextBelow(10) == 0)
                warp.atBarrier = !warp.atBarrier;
        }
        // A CTA whose warps are all done retires; sometimes one retires
        // early so its slots are recycled by the next launch.
        for (std::size_t hw = 0; hw < kCtas; ++hw) {
            if (!core.ctaValid[hw])
                continue;
            bool all_done = true;
            for (const Warp& warp : core.warps) {
                if (warp.valid && warp.hwCta == static_cast<int>(hw) &&
                    !warp.done)
                    all_done = false;
            }
            if (!all_done && rng.nextBelow(60) != 0)
                continue;
            const std::uint64_t block = core.ctaBlock[hw];
            if (core.retire(hw)) {
                for (std::size_t s = 0; s < kSlots; ++s) {
                    walks[s]->notifyBlockRetired(block);
                    picks[s]->notifyBlockRetired(block);
                    refs[s].notifyBlockRetired(block);
                }
            }
        }
        for (std::size_t s = 0; s < kSlots; ++s) {
            // A random issuable subset of the slot's live warps.
            std::vector<int> ready;
            for (int id : core.slotIds[s]) {
                const Warp& warp = core.warps[static_cast<std::size_t>(id)];
                if (warp.live() && !warp.atBarrier &&
                    rng.nextBelow(100) < issue_pct)
                    ready.push_back(id);
            }
            std::vector<int> visited;
            auto issuable = [&](int id) {
                visited.push_back(id);
                return std::binary_search(ready.begin(), ready.end(), id);
            };
            const int walked =
                walks[s]->walk(core.view(s), IssueTest(issuable));
            if (ready.empty()) {
                ASSERT_EQ(walked, -1) << "cycle " << cycle;
                // A slot that issues nothing was walked over every
                // live warp.
                for (int id : core.slotIds[s]) {
                    if (core.warps[static_cast<std::size_t>(id)].live()) {
                        ASSERT_TRUE(contains(visited, id)) << "warp " << id;
                    }
                }
                expectSameState(refs[s], *walks[s]);
                continue;
            }
            const int expected = refs[s].pick(ready, core.warps);
            ASSERT_EQ(walked, expected) << "cycle " << cycle << " slot " << s;
            ASSERT_EQ(picks[s]->pick(ready, core.warps), expected)
                << "cycle " << cycle << " slot " << s;
            refs[s].notifyIssued(expected, core.warps);
            walks[s]->notifyIssued(expected, core.warps);
            picks[s]->notifyIssued(expected, core.warps);
            expectSameState(refs[s], *walks[s]);
            expectSameState(refs[s], *picks[s]);
            core.issued(expected);
            ++issues;
        }
    }
    EXPECT_GT(issues, cycles / 4) << "the random core hardly issued";
}

TEST(IssueWalk, LrrMatchesReferencePick)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        runDifferential<RefLrr>(WarpSchedKind::LRR, seed, 400);
}

TEST(IssueWalk, GtoMatchesReferencePick)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        runDifferential<RefGto>(WarpSchedKind::GTO, seed, 400);
}

TEST(IssueWalk, TwoLevelMatchesReferencePick)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        runDifferential<RefTwoLevel>(WarpSchedKind::TwoLevel, seed, 400);
}

TEST(IssueWalk, BawsMatchesReferencePick)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        runDifferential<RefBaws>(WarpSchedKind::BAWS, seed, 400);
}

// --- The traps, pinned one by one --------------------------------------

/** Walk @p sched over @p core's slot 0 with @p ready issuable. */
int
walkSlot0(WarpScheduler& sched, const CoreModel& core,
          const std::vector<int>& ready)
{
    auto issuable = [&](int id) { return contains(ready, id); };
    return sched.walk(core.view(0), IssueTest(issuable));
}

TEST(IssueWalk, GtoIssuesItsGreedySlotEvenWhenRecycled)
{
    CoreModel core;
    core.launchBlock(1, 4, 0); // warps 0..3, CTA seq 0
    core.launchBlock(1, 4, 0); // warps 4..7, CTA seq 1
    GtoScheduler gto;
    gto.notifyIssued(0, core.warps);
    // CTA 0 retires and a new (youngest) CTA recycles warp slot 0.
    core.retire(0);
    core.launchBlock(1, 1, 1);
    ASSERT_EQ(core.warps[0].ctaSeq, 2u);
    // The greedy slot wins over the older CTA's warps 4 and 6.
    EXPECT_EQ(walkSlot0(gto, core, {0, 4, 6}), 0);
    RefGto ref;
    ref.lastIssued = 0;
    EXPECT_EQ(ref.pick({0, 4, 6}, core.warps), 0);
}

TEST(IssueWalk, TwoLevelKeepsTheSeatOfARecycledMember)
{
    CoreModel core;
    core.launchBlock(1, 2, 0); // warps 0, 1
    core.launchBlock(1, 4, 0); // warps 2..5
    TwoLevelScheduler tl(2);
    tl.notifyIssued(0, core.warps);
    tl.notifyIssued(2, core.warps);
    // Warp 0 dies and its slot is live again before slot 0 issues: the
    // lazy prune never sees it dead, so it keeps its seat.
    core.retire(0);
    core.launchBlock(1, 1, 1);
    EXPECT_EQ(walkSlot0(tl, core, {4}), 4);
    EXPECT_EQ(tl.activeSet(), (std::vector<int>{2, 4}));
    // A dead member is pruned only on a cycle that issues.
    core.warps[4].done = true;
    EXPECT_EQ(walkSlot0(tl, core, {}), -1);
    EXPECT_EQ(tl.activeSet(), (std::vector<int>{2, 4}));
    EXPECT_EQ(walkSlot0(tl, core, {0}), 0);
    EXPECT_EQ(tl.activeSet(), (std::vector<int>{2, 0}));
}

TEST(IssueWalk, BawsLaggardIsChosenAmongIssuableCtasOnly)
{
    CoreModel core;
    core.launchBlock(2, 4, 0); // block 0: CTA seq 0 (warps 0..3), 1 (4..7)
    BawsScheduler baws;
    // CTA seq 1 is the laggard, but only CTA seq 0 has an issuable
    // warp, so its oldest issuable warp wins.
    core.issued(0);
    core.issued(0);
    EXPECT_EQ(walkSlot0(baws, core, {2}), 2);
    // Progress sums every slot: slot 1's issues from CTA seq 1 (warps
    // 5 and 7) make CTA seq 0 the laggard despite its slot-0 issues.
    for (int i = 0; i < 3; ++i) {
        core.issued(5);
        core.issued(7);
    }
    EXPECT_EQ(walkSlot0(baws, core, {0, 2, 4, 6}), 0);
    // The rotate warp wins only inside the laggard CTA: warp 6 (CTA seq
    // 1) is the rotate warp, yet laggard CTA seq 0's oldest goes first.
    baws.notifyIssued(6, core.warps);
    EXPECT_EQ(walkSlot0(baws, core, {0, 2, 4, 6}), 0);
    baws.notifyIssued(2, core.warps);
    EXPECT_EQ(walkSlot0(baws, core, {0, 2, 4, 6}), 2);
}

TEST(IssueWalk, LrrWrapsPastTheHighestId)
{
    CoreModel core;
    core.launchBlock(1, 8, 0);
    LrrScheduler lrr;
    lrr.notifyIssued(6, core.warps);
    EXPECT_EQ(walkSlot0(lrr, core, {0, 2, 4}), 0);
    lrr.notifyIssued(4, core.warps);
    EXPECT_EQ(walkSlot0(lrr, core, {0, 2, 4}), 0);
    EXPECT_EQ(walkSlot0(lrr, core, {2, 6}), 6);
}

} // namespace
} // namespace bsched
