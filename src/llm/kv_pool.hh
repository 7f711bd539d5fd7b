/**
 * @file
 * Deterministic paged KV-cache pool (vLLM-style paged attention,
 * applied to the vNPU HBM budget).
 *
 * A serving endpoint carves the vNPU's HBM reservation left over
 * after weights into fixed-size pages of `pageTokens` tokens worth
 * of K+V state. Each live sequence holds an ordered page list that
 * grows as it decodes and is returned wholesale when it completes or
 * is preempted. All accounting is integral (page and token counts),
 * so results are bit-exact by construction. The free list is a LIFO
 * stack; per-sequence state is one record per sequence id in a
 * table sized at construction, and each page list is a chain
 * threaded through a per-page link array. Nothing depends on
 * hashing or addresses, so identical call sequences yield identical
 * pools at any host thread width, and the token loop's grow and
 * release never allocate.
 *
 * The §III-B residency check happens upstream: sizeVnpuForModel
 * reserves HBM for weights + per-sequence state, and
 * llm_serving sizes the pool from that reservation minus weights —
 * KV pages and weights compete for the same Eq. 4 budget.
 */

#ifndef NEU10_LLM_KV_POOL_HH
#define NEU10_LLM_KV_POOL_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace neu10
{
namespace llm
{

/** Identifier of one sequence within an endpoint. */
using SeqId = std::uint64_t;

/** Identifier of one KV page within a pool. */
using KvPageId = std::uint32_t;

/** Cumulative pool accounting (rides into LlmEndpointStats). */
struct KvPoolStats
{
    std::uint32_t totalPages = 0;
    std::uint32_t usedPages = 0;
    std::uint32_t highWaterPages = 0;
    std::uint64_t usedTokens = 0;  ///< live tokens across holders
    std::uint64_t allocOps = 0;    ///< pages handed out, cumulative
    std::uint64_t freeOps = 0;     ///< pages returned, cumulative
    std::uint64_t failedAllocs = 0;///< refused grow requests

    /**
     * Internal fragmentation right now: the fraction of allocated
     * page capacity (usedPages x pageTokens) not holding live
     * tokens. 0 when nothing is allocated.
     */
    double fragmentationFrac(std::uint32_t pageTokens) const;
};

/**
 * Fixed-page KV allocator for one endpoint.
 *
 * Sequence ids are dense indices below the bound given at
 * construction (an endpoint numbers its sequences 0..n-1). Each id
 * owns one holder record {tokens, pages, newest page} in a table
 * allocated once; a holder is live while it holds pages. Its pages
 * form a chain through a link array with one entry per page, from
 * the newest page back to the oldest. Growing pushes onto the head
 * of the chain and releasing walks it, so both do O(1) work plus one
 * step per page moved and never allocate. Holders are visited by a
 * scan of the table, which is ascending SeqId order by construction.
 */
class KvPool
{
  public:
    /**
     * @param numPages   pool capacity in pages.
     * @param pageTokens tokens of KV state per page (>= 1; enforced
     *                   with fatal()).
     * @param numSeqs    sequence ids the caller will use: the holder
     *                   table covers ids 0..numSeqs-1.
     */
    KvPool(std::uint32_t numPages, std::uint32_t pageTokens,
           std::size_t numSeqs);

    std::uint32_t pageTokens() const { return pageTokens_; }
    std::uint32_t totalPages() const { return stats_.totalPages; }
    std::uint32_t usedPages() const { return stats_.usedPages; }

    std::uint32_t
    freePages() const
    {
        return stats_.totalPages - stats_.usedPages;
    }

    const KvPoolStats &stats() const { return stats_; }

    /** Pages needed to hold @p tokens (ceiling division). */
    std::uint32_t pagesFor(std::uint64_t tokens) const;

    /**
     * Grow (or create) @p seq's page list so it covers @p tokens
     * live tokens. All-or-nothing: on insufficient free pages
     * nothing changes and failedAllocs increments. Shrinking is not
     * supported — sequences only grow until released.
     *
     * The covered case is inline: when @p seq's pages already hold
     * @p tokens (tokens <= pages x pageTokens), only the live-token
     * count moves, with no call and no division. This is the token
     * loop's common case, a new token landing in the newest page.
     * Growth goes out of line to grow(): the page count, the
     * free-list pops, the stats, the refused-grow path, and the
     * fatal() for an id past the holder table.
     * @return pages newly allocated (0 can mean "already covered");
     *         on failure returns 0 and @ref lastGrowFailed is set.
     * @throws FatalError if @p seq is past the holder table.
     */
    std::uint32_t
    ensureTokens(SeqId seq, std::uint64_t tokens)
    {
        lastGrowFailed_ = false;
        if (seq < holders_.size()) {
            Holder &h = holders_[seq];
            if (tokens <= std::uint64_t{h.pages} * pageTokens_) {
                if (tokens > h.tokens) {
                    stats_.usedTokens += tokens - h.tokens;
                    h.tokens = tokens;
                }
                return 0;
            }
        }
        return grow(seq, tokens);
    }

    /** True iff the previous ensureTokens() call was refused. */
    bool lastGrowFailed() const { return lastGrowFailed_; }

    /** Release every page @p seq holds. @return pages freed (0 for
     * an id that holds none, including one past the table). */
    std::uint32_t release(SeqId seq);

    /** Pages currently held by @p seq (0 if unknown). */
    std::uint32_t pagesHeld(SeqId seq) const;

    /** Live tokens recorded for @p seq (0 if unknown). */
    std::uint64_t tokensHeld(SeqId seq) const;

    /** @p seq's page list in allocation order; empty if unknown.
     * Walks the chain into a new vector: for tests, not hot paths. */
    std::vector<KvPageId> pages(SeqId seq) const;

    /** Holders in ascending SeqId order (deterministic iteration). */
    std::vector<SeqId> holders() const;

    /**
     * Checkpoint image: per-sequence live token counts, ascending
     * SeqId. Page *identity* is deliberately not part of the image —
     * a restore lands on a different core whose pool reassigns pages
     * deterministically; only capacity must be conserved.
     */
    struct Snapshot
    {
        std::uint32_t pageTokens = 0;
        std::vector<std::pair<SeqId, std::uint64_t>> seqTokens;
    };

    Snapshot snapshot() const;

    /**
     * Rebuild holders from @p snap into this (empty) pool.
     * @throws FatalError if the pool is not empty, page sizes
     * differ, an id is past this pool's holder table, or capacity
     * cannot cover the image (a restore must never silently leak or
     * oversubscribe).
     */
    void restore(const Snapshot &snap);

    /**
     * Conservation audit: used + free == total; every page id is in
     * range and on exactly one list (the free stack or one holder's
     * chain), exactly once; each chain is as long as its holder's
     * page count and covers its live tokens; and the live-holder
     * count matches the table. @throws FatalError on violation.
     */
    void audit() const;

  private:
    /** Chain terminator: the link of a holder's oldest page. */
    static constexpr KvPageId kNoPage = ~KvPageId{0};

    /** One sequence's books; all zero (newest = kNoPage) unless
     * live. */
    struct Holder
    {
        std::uint64_t tokens = 0;
        std::uint32_t pages = 0;
        KvPageId newest = kNoPage;
    };

    /** ensureTokens()'s out-of-line path: @p seq is past the table
     * (fatal) or needs pages beyond those it holds. */
    std::uint32_t grow(SeqId seq, std::uint64_t tokens);

    std::uint32_t pageTokens_;
    std::vector<KvPageId> freeList_; // LIFO: pop_back to allocate
    std::vector<KvPageId> link_;     // page -> next older page
    std::vector<Holder> holders_;    // indexed by SeqId
    std::size_t liveHolders_ = 0;
    KvPoolStats stats_;
    bool lastGrowFailed_ = false;
};

} // namespace llm
} // namespace neu10

#endif // NEU10_LLM_KV_POOL_HH
