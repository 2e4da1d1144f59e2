#include "core/warp_sched.hh"

#include <algorithm>

#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

std::unique_ptr<WarpScheduler>
WarpScheduler::create(WarpSchedKind kind, std::uint32_t two_level_active)
{
    switch (kind) {
      case WarpSchedKind::LRR:
        return std::make_unique<LrrScheduler>();
      case WarpSchedKind::GTO:
        return std::make_unique<GtoScheduler>();
      case WarpSchedKind::TwoLevel:
        return std::make_unique<TwoLevelScheduler>(two_level_active);
      case WarpSchedKind::BAWS:
        return std::make_unique<BawsScheduler>();
    }
    panic("unknown warp scheduler kind");
}

int
WarpScheduler::pick(const std::vector<int>& ready,
                    const std::vector<Warp>& warps)
{
    // Documented precondition: a non-empty ready set, so the walk
    // always finds a warp.
    BSCHED_CHECK(!ready.empty(), "warp scheduler: pick() with empty "
                                 "ready set");
    // Age order: older CTA first, then lower warp index, then lower id
    // (a stable sort of the ascending ids). Ascending ids are usually in
    // age order already, which one pass over the keys confirms.
    auto age = [&](int id) {
        const Warp& warp = warps[static_cast<std::size_t>(id)];
        return std::pair(warp.ctaSeq, warp.warpInCta);
    };
    std::span<const int> by_age = ready;
    auto prev = ready.empty() ? std::pair<std::uint64_t, std::uint32_t>{}
                              : age(ready.front());
    for (std::size_t i = 1; i < ready.size(); ++i) {
        const auto next = age(ready[i]);
        if (next < prev) {
            ageScratch_.assign(ready.begin(), ready.end());
            std::stable_sort(ageScratch_.begin(), ageScratch_.end(),
                             [&](int a, int b) { return age(a) < age(b); });
            by_age = ageScratch_;
            break;
        }
        prev = next;
    }
    auto in_ready = [&](int id) {
        return std::binary_search(ready.begin(), ready.end(), id);
    };
    return walk({warps, ready, by_age, {}, {}}, IssueTest(in_ready));
}

void
groupByCta(std::span<const int> by_age, const std::vector<Warp>& warps,
           std::vector<IssueCta>& out)
{
    out.clear();
    for (std::size_t i = 0; i < by_age.size(); ++i) {
        const Warp& warp = warps[static_cast<std::size_t>(by_age[i])];
        const auto pos = static_cast<std::uint32_t>(i);
        if (!out.empty() && out.back().ctaSeq == warp.ctaSeq &&
            out.back().block == warp.blockSeq) {
            out.back().end = pos + 1;
            continue;
        }
        out.push_back({warp.blockSeq, warp.ctaSeq,
                       static_cast<std::uint32_t>(warp.hwCta), pos,
                       pos + 1});
    }
}

// --- LRR ---------------------------------------------------------------

void
LrrScheduler::notifyIssued(int warp_id, const std::vector<Warp>& warps)
{
    (void)warps;
    lastIssued_ = warp_id;
}

// --- GTO ---------------------------------------------------------------

void
GtoScheduler::notifyIssued(int warp_id, const std::vector<Warp>& warps)
{
    (void)warps;
    lastIssued_ = warp_id;
}

// --- Two-level ----------------------------------------------------------

void
TwoLevelScheduler::reset()
{
    active_.clear();
    byId_.clear();
    lastIssued_ = -1;
}

void
TwoLevelScheduler::admit(int chosen, bool promote,
                         const std::vector<Warp>& warps)
{
    // Dead members are dropped lazily, on issuing walks only: a slot
    // recycled before its scheduler next issues keeps its seat.
    std::erase_if(active_, [&](int id) {
        return !warps[static_cast<std::size_t>(id)].live();
    });
    if (promote) {
        if (active_.size() >= activeSize_)
            active_.erase(active_.begin());
        active_.push_back(chosen);
    }
    byId_.assign(active_.begin(), active_.end());
    std::sort(byId_.begin(), byId_.end());
}

void
TwoLevelScheduler::notifyIssued(int warp_id, const std::vector<Warp>& warps)
{
    (void)warps;
    lastIssued_ = warp_id;
    if (std::find(active_.begin(), active_.end(), warp_id) == active_.end()) {
        active_.push_back(warp_id);
        byId_.insert(std::upper_bound(byId_.begin(), byId_.end(), warp_id),
                     warp_id);
    }
}

// --- BAWS --------------------------------------------------------------

void
BawsScheduler::reset()
{
    lastBlock_ = kNoBlock;
    rotate_.clear();
}

int
BawsScheduler::walk(const IssueView& view, IssueTest issuable)
{
    if (!view.ctas.empty() || view.byAge.empty())
        return walkWith(view, issuable);
    // No CTA grouping (pick()): group byAge here and sum each CTA's
    // progress from the table, indexing the sums by position.
    groupByCta(view.byAge, view.warps, ctaScratch_);
    issuedScratch_.assign(ctaScratch_.size(), 0);
    for (std::size_t i = 0; i < ctaScratch_.size(); ++i)
        ctaScratch_[i].hwCta = static_cast<std::uint32_t>(i);
    for (const Warp& peer : view.warps) {
        if (!peer.valid)
            continue;
        for (const IssueCta& cta : ctaScratch_) {
            if (cta.block == peer.blockSeq && cta.ctaSeq == peer.ctaSeq) {
                issuedScratch_[cta.hwCta] += peer.instrsIssued;
                break;
            }
        }
    }
    return walkWith({view.warps, view.byId, view.byAge, ctaScratch_,
                     issuedScratch_},
                    issuable);
}

namespace {

/** The first entry of @p table whose block is not below @p block. */
template <class Table>
auto
findBlock(Table& table, std::uint64_t block)
{
    return std::lower_bound(
        table.begin(), table.end(), block,
        [](const auto& entry, std::uint64_t b) { return entry.block < b; });
}

} // namespace

int
BawsScheduler::rotateWarp(const IssueCta& cta,
                          const std::vector<Warp>& warps) const
{
    const auto it = findBlock(rotate_, cta.block);
    if (it == rotate_.end() || it->block != cta.block)
        return -1;
    const Warp& warp = warps[static_cast<std::size_t>(it->warp)];
    return warp.blockSeq == cta.block && warp.ctaSeq == cta.ctaSeq
        ? it->warp
        : -1;
}

void
BawsScheduler::notifyIssued(int warp_id, const std::vector<Warp>& warps)
{
    const Warp& warp = warps[static_cast<std::size_t>(warp_id)];
    lastBlock_ = warp.blockSeq;
    const auto it = findBlock(rotate_, lastBlock_);
    if (it != rotate_.end() && it->block == lastBlock_)
        it->warp = warp_id;
    else
        rotate_.insert(it, {lastBlock_, warp_id});
}

void
BawsScheduler::notifyBlockRetired(std::uint64_t block)
{
    const auto it = findBlock(rotate_, block);
    if (it != rotate_.end() && it->block == block)
        rotate_.erase(it);
    if (lastBlock_ == block)
        lastBlock_ = kNoBlock;
}

} // namespace bsched
