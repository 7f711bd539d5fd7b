#include "llm/kv_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neu10
{
namespace llm
{

double
KvPoolStats::fragmentationFrac(std::uint32_t pageTokens) const
{
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(usedPages) * pageTokens;
    if (capacity == 0)
        return 0.0;
    return 1.0 - static_cast<double>(usedTokens) /
                     static_cast<double>(capacity);
}

KvPool::KvPool(std::uint32_t numPages, std::uint32_t pageTokens,
               std::size_t numSeqs)
    : pageTokens_(pageTokens), link_(numPages, kNoPage),
      holders_(numSeqs)
{
    if (pageTokens == 0)
        fatal("KvPool: pageTokens must be >= 1");
    stats_.totalPages = numPages;
    // Stack the ids so the first allocation takes page 0 (pop_back
    // of a descending stack): page handout order is then a pure
    // function of the call sequence.
    freeList_.reserve(numPages);
    for (std::uint32_t i = numPages; i > 0; --i)
        freeList_.push_back(i - 1);
}

std::uint32_t
KvPool::pagesFor(std::uint64_t tokens) const
{
    return static_cast<std::uint32_t>(
        (tokens + pageTokens_ - 1) / pageTokens_);
}

std::uint32_t
KvPool::grow(SeqId seq, std::uint64_t tokens)
{
    if (seq >= holders_.size())
        fatal("KvPool: sequence id %llu is past the holder table "
              "(ids below %zu)",
              static_cast<unsigned long long>(seq), holders_.size());
    Holder &h = holders_[seq];
    // The inline caller saw tokens > pages x pageTokens, so this
    // holder needs at least one more page.
    const std::uint32_t want = pagesFor(tokens);
    const std::uint32_t need = want - h.pages;
    if (need > freeList_.size()) {
        ++stats_.failedAllocs;
        lastGrowFailed_ = true;
        return 0;
    }
    if (h.pages == 0)
        ++liveHolders_;
    for (std::uint32_t i = 0; i < need; ++i) {
        const KvPageId page = freeList_.back();
        freeList_.pop_back();
        link_[page] = h.newest;
        h.newest = page;
    }
    h.pages = want;
    stats_.usedPages += need;
    stats_.allocOps += need;
    stats_.highWaterPages =
        std::max(stats_.highWaterPages, stats_.usedPages);
    stats_.usedTokens += tokens - h.tokens;
    h.tokens = tokens;
    return need;
}

std::uint32_t
KvPool::release(SeqId seq)
{
    if (seq >= holders_.size() || holders_[seq].pages == 0)
        return 0;
    Holder &h = holders_[seq];
    const std::uint32_t freed = h.pages;
    // The chain runs newest to oldest, so the oldest page lands on
    // top of the LIFO free list: pages are handed back in the order
    // they were taken.
    for (KvPageId page = h.newest; page != kNoPage; page = link_[page])
        freeList_.push_back(page);
    stats_.usedTokens -= h.tokens;
    stats_.usedPages -= freed;
    stats_.freeOps += freed;
    h = Holder{};
    --liveHolders_;
    return freed;
}

std::uint32_t
KvPool::pagesHeld(SeqId seq) const
{
    return seq < holders_.size() ? holders_[seq].pages : 0;
}

std::uint64_t
KvPool::tokensHeld(SeqId seq) const
{
    return seq < holders_.size() ? holders_[seq].tokens : 0;
}

std::vector<KvPageId>
KvPool::pages(SeqId seq) const
{
    if (seq >= holders_.size())
        return {};
    const Holder &h = holders_[seq];
    std::vector<KvPageId> out(h.pages);
    KvPageId page = h.newest;
    for (std::size_t i = out.size(); i > 0; --i) {
        out[i - 1] = page;
        page = link_[page];
    }
    return out;
}

std::vector<SeqId>
KvPool::holders() const
{
    std::vector<SeqId> out;
    out.reserve(liveHolders_);
    for (SeqId seq = 0; seq < holders_.size(); ++seq)
        if (holders_[seq].pages != 0)
            out.push_back(seq);
    return out;
}

KvPool::Snapshot
KvPool::snapshot() const
{
    Snapshot snap;
    snap.pageTokens = pageTokens_;
    snap.seqTokens.reserve(liveHolders_);
    for (SeqId seq = 0; seq < holders_.size(); ++seq)
        if (holders_[seq].pages != 0)
            snap.seqTokens.emplace_back(seq, holders_[seq].tokens);
    return snap;
}

void
KvPool::restore(const Snapshot &snap)
{
    if (stats_.usedPages != 0 || liveHolders_ != 0)
        fatal("KvPool::restore: target pool is not empty "
              "(%u pages in use)", stats_.usedPages);
    if (snap.pageTokens != pageTokens_)
        fatal("KvPool::restore: page size mismatch (%u vs %u tokens)",
              snap.pageTokens, pageTokens_);
    for (const auto &[seq, toks] : snap.seqTokens) {
        ensureTokens(seq, toks);
        if (lastGrowFailed_)
            fatal("KvPool::restore: pool of %u pages cannot cover "
                  "the checkpoint image", stats_.totalPages);
    }
    audit();
}

void
KvPool::audit() const
{
    if (stats_.usedPages + freeList_.size() != stats_.totalPages)
        fatal("KvPool::audit: conservation broken (%u used + %zu "
              "free != %u total)",
              stats_.usedPages, freeList_.size(), stats_.totalPages);
    // Every page id on exactly one list, exactly once. Marking
    // before following a link also bounds each chain walk: a cycle
    // revisits a page and fails here.
    std::vector<bool> seen(stats_.totalPages, false);
    const auto mark = [&](KvPageId id) {
        if (id >= stats_.totalPages)
            fatal("KvPool::audit: page id %u out of range", id);
        if (seen[id])
            fatal("KvPool::audit: page %u double-booked", id);
        seen[id] = true;
    };
    for (KvPageId id : freeList_)
        mark(id);
    std::uint64_t held = 0;
    std::size_t live = 0;
    for (SeqId seq = 0; seq < holders_.size(); ++seq) {
        const Holder &h = holders_[seq];
        std::uint64_t chain = 0;
        for (KvPageId id = h.newest; id != kNoPage; id = link_[id]) {
            mark(id);
            ++chain;
        }
        if (chain != h.pages)
            fatal("KvPool::audit: seq %llu chains %llu pages but "
                  "records %u",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(chain), h.pages);
        // Holder list must cover its live tokens exactly (a holder
        // with no pages must record no tokens).
        if (pagesFor(h.tokens) > h.pages)
            fatal("KvPool::audit: seq %llu holds %u pages for "
                  "%llu tokens",
                  static_cast<unsigned long long>(seq), h.pages,
                  static_cast<unsigned long long>(h.tokens));
        held += h.pages;
        if (h.pages != 0)
            ++live;
    }
    if (held != stats_.usedPages)
        fatal("KvPool::audit: page lists hold %llu pages but "
              "usedPages says %u",
              static_cast<unsigned long long>(held),
              stats_.usedPages);
    if (live != liveHolders_)
        fatal("KvPool::audit: %zu holders hold pages but the live "
              "count says %zu",
              live, liveHolders_);
}

} // namespace llm
} // namespace neu10
