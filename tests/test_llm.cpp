/**
 * @file
 * LLM-subsystem tests (src/llm/): the paged KV pool (allocation,
 * all-or-nothing grow, conservation under preemption-style churn,
 * audit, and a differential run against the map-of-vectors
 * reference pool), the §III-B pool sizing math, the
 * buildLlama parity digest (the zoo graph must stay digit-identical
 * to the pre-phase-model generation), and end-to-end token-level
 * serving through the fleet: continuous batching must beat the
 * static-batch baseline at equal HBM, preemption and fault-injected
 * board loss must conserve both requests and pages, and everything
 * must be bit-identical across host thread widths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cluster/fleet.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "llm/kv_pool.hh"
#include "llm/llm_serving.hh"
#include "llm/phase_model.hh"
#include "models/zoo.hh"
#include "resilience/faults.hh"
#include "vnpu/allocator.hh"

#include "result_eq.hh"

namespace neu10
{
namespace
{

using llm::KvPool;

// ------------------------------------------------------ KV pool

TEST(KvPool, AllocGrowReleaseRoundTrip)
{
    KvPool pool(8, 16, 8);
    EXPECT_EQ(pool.totalPages(), 8u);
    EXPECT_EQ(pool.freePages(), 8u);
    EXPECT_EQ(pool.pagesFor(0), 0u);
    EXPECT_EQ(pool.pagesFor(1), 1u);
    EXPECT_EQ(pool.pagesFor(16), 1u);
    EXPECT_EQ(pool.pagesFor(17), 2u);

    EXPECT_EQ(pool.ensureTokens(7, 16), 1u);
    EXPECT_FALSE(pool.lastGrowFailed());
    EXPECT_EQ(pool.pagesHeld(7), 1u);
    EXPECT_EQ(pool.tokensHeld(7), 16u);
    // Growing within the last page allocates nothing.
    EXPECT_EQ(pool.ensureTokens(7, 16), 0u);
    EXPECT_EQ(pool.ensureTokens(7, 17), 1u);
    EXPECT_EQ(pool.pagesHeld(7), 2u);
    EXPECT_EQ(pool.usedPages(), 2u);
    pool.audit();

    EXPECT_EQ(pool.release(7), 2u);
    EXPECT_EQ(pool.usedPages(), 0u);
    EXPECT_EQ(pool.pagesHeld(7), 0u);
    EXPECT_EQ(pool.stats().allocOps, 2u);
    EXPECT_EQ(pool.stats().freeOps, 2u);
    pool.audit();
}

TEST(KvPool, FirstAllocTakesPageZero)
{
    // The free list is stacked so allocation order is 0, 1, 2, ... —
    // page identity is deterministic, not an artifact of stack setup.
    KvPool pool(4, 16, 4);
    pool.ensureTokens(1, 16);
    pool.ensureTokens(2, 32);
    const std::vector<llm::KvPageId> p1 = pool.pages(1);
    const std::vector<llm::KvPageId> p2 = pool.pages(2);
    ASSERT_EQ(p1.size(), 1u);
    ASSERT_EQ(p2.size(), 2u);
    EXPECT_EQ(p1[0], 0u);
    EXPECT_EQ(p2[0], 1u);
    EXPECT_EQ(p2[1], 2u);
    // Never-used ids, in the table or past it, read as unknown.
    EXPECT_TRUE(pool.pages(3).empty());
    EXPECT_TRUE(pool.pages(99).empty());
    EXPECT_EQ(pool.pagesHeld(99), 0u);
    EXPECT_EQ(pool.tokensHeld(99), 0u);
    EXPECT_EQ(pool.release(99), 0u);
}

TEST(KvPool, LifoReuse)
{
    KvPool pool(4, 16, 4);
    pool.ensureTokens(1, 16); // page 0
    pool.ensureTokens(2, 16); // page 1
    pool.release(1);          // page 0 back on top of the stack
    pool.ensureTokens(3, 16);
    const std::vector<llm::KvPageId> p3 = pool.pages(3);
    ASSERT_FALSE(p3.empty());
    EXPECT_EQ(p3[0], 0u); // most recently freed page reused first
}

TEST(KvPool, AllOrNothingGrow)
{
    KvPool pool(4, 16, 3);
    EXPECT_EQ(pool.ensureTokens(1, 48), 3u);
    // Needs 2 pages with only 1 free: nothing must change.
    EXPECT_EQ(pool.ensureTokens(2, 32), 0u);
    EXPECT_TRUE(pool.lastGrowFailed());
    EXPECT_EQ(pool.pagesHeld(2), 0u);
    EXPECT_EQ(pool.tokensHeld(2), 0u);
    EXPECT_EQ(pool.usedPages(), 3u);
    EXPECT_EQ(pool.stats().failedAllocs, 1u);
    pool.audit();
    // A fitting request still succeeds afterwards.
    EXPECT_EQ(pool.ensureTokens(2, 16), 1u);
    EXPECT_FALSE(pool.lastGrowFailed());
    pool.audit();
}

TEST(KvPool, CoveredBoundaryIsExact)
{
    // ensureTokens() answers the covered case inline by comparing
    // tokens with pages x pageTokens; growth goes out of line. The
    // boundary between the two must sit exactly at a full last page.
    for (std::uint32_t pt : {1u, 7u, 16u}) {
        SCOPED_TRACE(::testing::Message() << "pageTokens " << pt);
        KvPool pool(4, pt, 2);
        ASSERT_EQ(pool.ensureTokens(0, pt + 1), 2u);
        const std::uint64_t ops = pool.stats().allocOps;

        // Exactly pages x pageTokens tokens is covered: no page, but
        // the live-token count moves.
        EXPECT_EQ(pool.ensureTokens(0, 2 * pt), 0u);
        EXPECT_FALSE(pool.lastGrowFailed());
        EXPECT_EQ(pool.stats().allocOps, ops);
        EXPECT_EQ(pool.pagesHeld(0), 2u);
        EXPECT_EQ(pool.tokensHeld(0), 2u * pt);
        EXPECT_EQ(pool.stats().usedTokens, 2u * pt);

        // One more token takes exactly one page.
        EXPECT_EQ(pool.ensureTokens(0, 2 * pt + 1), 1u);
        EXPECT_EQ(pool.stats().allocOps, ops + 1);
        EXPECT_EQ(pool.pagesHeld(0), 3u);
        EXPECT_EQ(pool.stats().usedTokens, 2u * pt + 1);

        // A lower count never shrinks the holder, nor its tokens.
        EXPECT_EQ(pool.ensureTokens(0, 1), 0u);
        EXPECT_EQ(pool.ensureTokens(0, 0), 0u);
        EXPECT_EQ(pool.pagesHeld(0), 3u);
        EXPECT_EQ(pool.tokensHeld(0), 2u * pt + 1);
        EXPECT_EQ(pool.stats().usedTokens, 2u * pt + 1);

        // A refused grow is cleared by the next, covered, call.
        EXPECT_EQ(pool.ensureTokens(1, 2 * pt + 1), 0u);
        EXPECT_TRUE(pool.lastGrowFailed());
        EXPECT_EQ(pool.ensureTokens(0, 3 * pt), 0u);
        EXPECT_FALSE(pool.lastGrowFailed());
        pool.audit();

        // An id past the table still reaches fatal() through the
        // inline path, whatever the token count.
        EXPECT_THROW(pool.ensureTokens(2, 0), FatalError);
        EXPECT_THROW(pool.ensureTokens(2, 1), FatalError);
        EXPECT_EQ(pool.usedPages(), 3u);
        pool.audit();
    }
}

TEST(KvPool, HighWaterAndFragmentation)
{
    KvPool pool(8, 16, 2);
    pool.ensureTokens(1, 33); // 3 pages for 33 tokens
    EXPECT_EQ(pool.stats().highWaterPages, 3u);
    // 48 tokens of page capacity hold 33 live tokens.
    EXPECT_DOUBLE_EQ(pool.stats().fragmentationFrac(16),
                     1.0 - 33.0 / 48.0);
    pool.release(1);
    EXPECT_EQ(pool.stats().highWaterPages, 3u); // sticky
    EXPECT_DOUBLE_EQ(pool.stats().fragmentationFrac(16), 0.0);
    EXPECT_EQ(pool.release(1), 0u); // unknown/empty release is a no-op
}

TEST(KvPool, ConservationUnderPreemptionChurn)
{
    // Deterministic admit/grow/preempt churn: pages must be conserved
    // at every step and fully recovered at the end.
    KvPool pool(13, 16, 200);
    llm::SeqId next = 0;
    std::vector<llm::SeqId> live;
    for (unsigned step = 0; step < 200; ++step) {
        const llm::SeqId s = next++;
        if (pool.ensureTokens(s, 16 + (step % 5) * 16) > 0)
            live.push_back(s);
        // Grow everything by a token; preempt the youngest on refusal
        // exactly like the scheduler does.
        for (std::size_t i = 0; i < live.size();) {
            pool.ensureTokens(live[i],
                              pool.tokensHeld(live[i]) + 1);
            if (pool.lastGrowFailed()) {
                pool.release(live.back());
                live.pop_back();
            } else {
                ++i;
            }
        }
        pool.audit();
        EXPECT_EQ(pool.usedPages() + pool.freePages(),
                  pool.totalPages());
        EXPECT_EQ(pool.stats().allocOps - pool.stats().freeOps,
                  pool.usedPages());
    }
    EXPECT_GT(pool.stats().failedAllocs, 0u);
    for (llm::SeqId s : pool.holders())
        pool.release(s);
    EXPECT_EQ(pool.usedPages(), 0u);
    EXPECT_EQ(pool.stats().allocOps, pool.stats().freeOps);
    pool.audit();
}

/**
 * Reference model for the differential test: the pool as first
 * written, with each sequence's page list in a vector and the
 * per-sequence books in ordered maps. It fixes page identity, the
 * LIFO reuse order and every counter the table-and-chain pool must
 * reproduce exactly.
 */
class RefKvPool
{
  public:
    RefKvPool(std::uint32_t numPages, std::uint32_t pageTokens)
        : pageTokens_(pageTokens)
    {
        stats_.totalPages = numPages;
        for (std::uint32_t i = numPages; i > 0; --i)
            freeList_.push_back(i - 1);
    }

    const llm::KvPoolStats &stats() const { return stats_; }
    bool lastGrowFailed() const { return lastGrowFailed_; }

    std::uint32_t
    pagesFor(std::uint64_t tokens) const
    {
        return static_cast<std::uint32_t>(
            (tokens + pageTokens_ - 1) / pageTokens_);
    }

    std::uint32_t
    ensureTokens(llm::SeqId seq, std::uint64_t tokens)
    {
        lastGrowFailed_ = false;
        const std::uint32_t want = pagesFor(tokens);
        const auto it = held_.find(seq);
        const std::uint32_t have =
            it == held_.end()
                ? 0
                : static_cast<std::uint32_t>(it->second.size());
        if (want > have) {
            const std::uint32_t need = want - have;
            if (need > freeList_.size()) {
                ++stats_.failedAllocs;
                lastGrowFailed_ = true;
                return 0;
            }
            auto &list = (it == held_.end()) ? held_[seq] : it->second;
            for (std::uint32_t i = 0; i < need; ++i) {
                list.push_back(freeList_.back());
                freeList_.pop_back();
            }
            stats_.usedPages += need;
            stats_.allocOps += need;
            stats_.highWaterPages =
                std::max(stats_.highWaterPages, stats_.usedPages);
            auto &rec = tokens_[seq];
            stats_.usedTokens += tokens - rec;
            rec = tokens;
            return need;
        }
        if (tokens > 0 || it != held_.end()) {
            auto &rec = tokens_[seq];
            if (tokens > rec) {
                stats_.usedTokens += tokens - rec;
                rec = tokens;
            }
        }
        return 0;
    }

    std::uint32_t
    release(llm::SeqId seq)
    {
        const auto it = held_.find(seq);
        if (it == held_.end())
            return 0;
        const auto freed = static_cast<std::uint32_t>(it->second.size());
        for (auto rit = it->second.rbegin(); rit != it->second.rend();
             ++rit)
            freeList_.push_back(*rit);
        held_.erase(it);
        const auto tit = tokens_.find(seq);
        if (tit != tokens_.end()) {
            stats_.usedTokens -= tit->second;
            tokens_.erase(tit);
        }
        stats_.usedPages -= freed;
        stats_.freeOps += freed;
        return freed;
    }

    std::uint64_t
    tokensHeld(llm::SeqId seq) const
    {
        const auto it = tokens_.find(seq);
        return it == tokens_.end() ? 0 : it->second;
    }

    std::vector<llm::KvPageId>
    pages(llm::SeqId seq) const
    {
        const auto it = held_.find(seq);
        return it == held_.end() ? std::vector<llm::KvPageId>{}
                                 : it->second;
    }

    std::vector<llm::SeqId>
    holders() const
    {
        std::vector<llm::SeqId> out;
        for (const auto &[seq, list] : held_)
            out.push_back(seq);
        return out;
    }

  private:
    std::uint32_t pageTokens_;
    std::vector<llm::KvPageId> freeList_;
    std::map<llm::SeqId, std::vector<llm::KvPageId>> held_;
    std::map<llm::SeqId, std::uint64_t> tokens_;
    llm::KvPoolStats stats_;
    bool lastGrowFailed_ = false;
};

/** Every observable of @p pool equals the reference's, for the
 * live holders and for @p touched. */
void
expectSamePools(const KvPool &pool, const RefKvPool &ref,
                llm::SeqId touched)
{
    ASSERT_EQ(pool.lastGrowFailed(), ref.lastGrowFailed());
    const llm::KvPoolStats &a = pool.stats();
    const llm::KvPoolStats &b = ref.stats();
    ASSERT_EQ(a.totalPages, b.totalPages);
    ASSERT_EQ(a.usedPages, b.usedPages);
    ASSERT_EQ(a.highWaterPages, b.highWaterPages);
    ASSERT_EQ(a.usedTokens, b.usedTokens);
    ASSERT_EQ(a.allocOps, b.allocOps);
    ASSERT_EQ(a.freeOps, b.freeOps);
    ASSERT_EQ(a.failedAllocs, b.failedAllocs);
    const std::vector<llm::SeqId> holders = pool.holders();
    ASSERT_EQ(holders, ref.holders());
    std::vector<llm::SeqId> check = holders;
    check.push_back(touched);
    for (const llm::SeqId seq : check) {
        const std::vector<llm::KvPageId> pages = ref.pages(seq);
        ASSERT_EQ(pool.pages(seq), pages) << "seq " << seq;
        ASSERT_EQ(pool.pagesHeld(seq), pages.size()) << "seq " << seq;
        ASSERT_EQ(pool.tokensHeld(seq), ref.tokensHeld(seq))
            << "seq " << seq;
    }
    pool.audit();
}

TEST(KvPool, MatchesReferenceUnderChurn)
{
    // Seeded scheduler-shaped churn: admissions (fresh ids and
    // preempted ones re-admitted under the same id), token growth
    // with youngest-first eviction on refusal, completions, already-
    // covered grows and releases of ids that hold nothing, on a pool
    // small enough that grows are refused often.
    constexpr std::uint32_t kPages = 48;
    constexpr std::uint32_t kPageTokens = 4;
    constexpr std::size_t kSeqs = 4096;
    constexpr unsigned kSteps = 12000;
    KvPool pool(kPages, kPageTokens, kSeqs);
    RefKvPool ref(kPages, kPageTokens);
    Rng rng(0x6b76706f6f6cull);

    std::vector<llm::SeqId> running;              // admission order
    std::vector<std::pair<llm::SeqId, std::uint64_t>> waiting;
    llm::SeqId next = 0;
    std::uint64_t preemptions = 0, readmits = 0;

    // One call on both pools; the return values must agree.
    const auto grow = [&](llm::SeqId seq, std::uint64_t tokens) {
        const std::uint32_t got = pool.ensureTokens(seq, tokens);
        EXPECT_EQ(got, ref.ensureTokens(seq, tokens))
            << "seq " << seq << " tokens " << tokens;
        return !pool.lastGrowFailed();
    };
    const auto drop = [&](llm::SeqId seq) {
        const std::uint32_t freed = pool.release(seq);
        EXPECT_EQ(freed, ref.release(seq)) << "seq " << seq;
    };

    for (unsigned step = 0; step < kSteps; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        llm::SeqId touched = kSeqs + 7; // past the table
        const std::uint64_t op = rng.below(10);
        if (op < 3) {
            // Admit: re-admit the head of the preempted queue, or
            // start a fresh sequence.
            if (!waiting.empty() &&
                (rng.below(2) == 0 || next >= kSeqs)) {
                const auto [seq, tokens] = waiting.front();
                touched = seq;
                if (grow(seq, tokens)) {
                    waiting.erase(waiting.begin());
                    running.push_back(seq);
                    ++readmits;
                }
            } else if (next < kSeqs) {
                touched = next;
                if (grow(next, 1 + rng.below(40)))
                    running.push_back(next);
                ++next;
            }
        } else if (op < 7 && !running.empty()) {
            // Decode growth; evict the youngest until it fits.
            const std::size_t k = rng.below(running.size());
            const llm::SeqId seq = running[k];
            touched = seq;
            const std::uint64_t want =
                pool.tokensHeld(seq) + 1 + rng.below(8);
            while (!grow(seq, want) && running.size() > 1) {
                const llm::SeqId victim = running.back();
                waiting.insert(waiting.begin(),
                               {victim, ref.tokensHeld(victim)});
                drop(victim);
                running.pop_back();
                ++preemptions;
                if (victim == seq)
                    break;
            }
        } else if (op == 7 && !running.empty()) {
            // Completion of a random running sequence.
            const std::size_t k = rng.below(running.size());
            touched = running[k];
            drop(touched);
            running.erase(running.begin() +
                          static_cast<std::ptrdiff_t>(k));
        } else if (op == 8 && !running.empty()) {
            // Already covered: equal or fewer tokens move nothing.
            const llm::SeqId seq = running[rng.below(running.size())];
            touched = seq;
            const std::uint64_t held = pool.tokensHeld(seq);
            const std::uint64_t back =
                rng.below(std::min<std::uint64_t>(held, 3) + 1);
            grow(seq, held - back);
        } else {
            // Ids that hold nothing: zero-token grows and releases of
            // never-used, finished or past-the-table ids.
            touched = rng.below(kSeqs + 16);
            if (touched < kSeqs && pool.pagesHeld(touched) == 0)
                grow(touched, 0);
            if (pool.pagesHeld(touched) == 0)
                drop(touched);
        }
        ASSERT_NO_FATAL_FAILURE(expectSamePools(pool, ref, touched));
        ASSERT_FALSE(HasFailure());
    }
    EXPECT_GT(ref.stats().failedAllocs, 100u);
    EXPECT_GT(preemptions, 100u);
    EXPECT_GT(readmits, 100u);
    for (const llm::SeqId seq : pool.holders())
        drop(seq);
    ASSERT_NO_FATAL_FAILURE(expectSamePools(pool, ref, 0));
    EXPECT_EQ(pool.usedPages(), 0u);
}

// ------------------------------------------------- §III-B sizing

TEST(KvSizing, PoolPagesMatchResidencyMath)
{
    const llm::LlmModelSpec &spec = llm::llamaSpec();
    const NpuCoreConfig core;
    // Batch-32 sizing reserves 40 GiB; weights + 32 activation sets
    // leave 1072 pages of 16 tokens.
    const Bytes hbm32 =
        sizeVnpuForModel(ModelId::Llama, 32, 8, core)
            .config.memSizePerCore;
    EXPECT_EQ(llm::kvPoolPages(spec, hbm32, 32, 16), 1072u);
    // Batch-8 sizing reserves 30 GiB -> 307 pages (the preemption
    // scenario's starved pool).
    const Bytes hbm8 =
        sizeVnpuForModel(ModelId::Llama, 8, 8, core)
            .config.memSizePerCore;
    EXPECT_EQ(llm::kvPoolPages(spec, hbm8, 8, 16), 307u);
    // Exact formula, not just the two constants.
    const Bytes reserve =
        spec.weightBytes + 32 * spec.actPerSample;
    const Bytes page_bytes = 16 * spec.kvBytesPerToken();
    EXPECT_EQ(llm::kvPoolPages(spec, hbm32, 32, 16),
              (hbm32 - reserve) / page_bytes);
    // An HBM budget the weights alone exceed cannot host a pool.
    EXPECT_THROW(llm::kvPoolPages(spec, spec.weightBytes, 1, 16),
                 FatalError);
}

// ------------------------------------- buildLlama parity digest

struct GraphDigest
{
    std::size_t ops = 0;
    double macs = 0.0;
    double ve = 0.0;
    Bytes bytes = 0;
};

GraphDigest
digestOf(const DnnGraph &g)
{
    GraphDigest d;
    d.ops = g.ops.size();
    for (const TensorOp &op : g.ops) {
        d.macs += op.macs;
        d.ve += op.veElems;
        d.bytes += op.bytes;
    }
    return d;
}

// The digests below were captured from the hand-rolled generator
// before models/llm.cc was rebuilt on llm/phase_model.hh. They pin
// digit-identical emission: any drift in the shared constants or the
// emission order is a parity break, not a tolerance question.
TEST(LlamaParity, AggregateDigestsPinned)
{
    const struct
    {
        unsigned batch;
        double macs, ve;
        Bytes bytes, footprint;
    } pins[] = {
        {1, 7158838067200.0, 1146634240.0, 1264937074688u,
         28366077952u},
        {8, 57270704537600.0, 9173073920.0, 1415539851264u,
         31507611648u},
        {32, 229082818150400.0, 36692295680.0, 1931892228096u,
         42278584320u},
    };
    for (const auto &pin : pins) {
        SCOPED_TRACE(::testing::Message() << "batch " << pin.batch);
        const DnnGraph g = buildModel(ModelId::Llama, pin.batch);
        g.validate();
        const GraphDigest d = digestOf(g);
        EXPECT_EQ(d.ops, 217u);
        EXPECT_EQ(d.macs, pin.macs);
        EXPECT_EQ(d.ve, pin.ve);
        EXPECT_EQ(d.bytes, pin.bytes);
        EXPECT_EQ(g.hbmFootprint, pin.footprint);
        EXPECT_EQ(g.hbmFootprint,
                  llm::llamaSpec().footprint(pin.batch));
    }
}

TEST(LlamaParity, SpotOpsPinned)
{
    const DnnGraph g = buildModel(ModelId::Llama, 8);
    ASSERT_EQ(g.ops.size(), 217u);

    EXPECT_EQ(g.ops[0].name, "embed");
    EXPECT_EQ(g.ops[0].kind, OpKind::Embedding);
    EXPECT_EQ(g.ops[0].veElems, 41943040.0);
    EXPECT_EQ(g.ops[0].bytes, 83886080u);

    EXPECT_EQ(g.ops[1].name, "prefill0.proj");
    EXPECT_EQ(g.ops[1].kind, OpKind::MatMul);
    EXPECT_EQ(g.ops[1].macs, 6496138035200.0);
    EXPECT_EQ(g.ops[1].bytes, 3429892096u);
    EXPECT_EQ(g.ops[1].parallelTiles, 1280u);

    EXPECT_EQ(g.ops[2].name, "prefill0.attn");
    EXPECT_EQ(g.ops[2].macs, 53687091200.0);
    EXPECT_EQ(g.ops[2].bytes, 109576192u);
    EXPECT_EQ(g.ops[2].parallelTiles, 128u);

    EXPECT_EQ(g.ops[3].name, "prefill0.softmax_norm");
    EXPECT_EQ(g.ops[3].veElems, 838860800.0);

    EXPECT_EQ(g.ops[25].name, "dec0.gemv_a");
    EXPECT_EQ(g.ops[25].kind, OpKind::Gemv);
    EXPECT_EQ(g.ops[25].macs, 50751078400.0);
    EXPECT_EQ(g.ops[25].bytes, 12687769600u);
    EXPECT_EQ(g.ops[25].meEfficiency, 0.0625);
    EXPECT_EQ(g.ops[25].parallelTiles, 40u);

    EXPECT_EQ(g.ops[27].name, "dec0.kv_attn");
    EXPECT_EQ(g.ops[27].kind, OpKind::Vector);
    EXPECT_EQ(g.ops[27].veElems, 41943040.0);
    EXPECT_EQ(g.ops[27].bytes, 3523215360u);

    EXPECT_EQ(g.ops[28].name, "dec0.norm_sample");
    EXPECT_EQ(g.ops[28].veElems, 6553600.0);

    // The KV read grows linearly with decode position: step 47 reads
    // 47 more tokens of context than step 0.
    EXPECT_EQ(g.ops[215].name, "dec47.kv_attn");
    EXPECT_EQ(g.ops[215].veElems, 45793280.0);
    EXPECT_EQ(g.ops[215].veElems - g.ops[27].veElems, 47 * 81920.0);
}

// ------------------------------------------------- phase model

TEST(PhaseModel, RooflineShape)
{
    const llm::LlmModelSpec &spec = llm::llamaSpec();
    const NpuCoreConfig core;
    EXPECT_EQ(llm::prefillBytes(spec, 512),
              spec.weightBytes + 512 * spec.kvBytesPerToken());
    EXPECT_EQ(llm::decodeStepBytes(spec, 1000),
              spec.weightBytes + 1000 * spec.kvBytesPerToken());

    // Decode is bandwidth-bound at small batch: the full-bandwidth
    // step cost is the weight stream plus overhead.
    const Cycles step =
        llm::decodeStepCycles(spec, 4, 4 * 512, core, 4, 1.0);
    const double stream =
        static_cast<double>(llm::decodeStepBytes(spec, 4 * 512)) /
        core.hbmBytesPerCycle();
    EXPECT_EQ(step, stream + 4096.0);

    // Costs are monotone in context and prompt length.
    EXPECT_GT(llm::decodeStepCycles(spec, 4, 8192, core, 4, 1.0),
              llm::decodeStepCycles(spec, 4, 2048, core, 4, 1.0));
    EXPECT_GT(llm::prefillCycles(spec, 1024, core, 4, 1.0),
              llm::prefillCycles(spec, 256, core, 4, 1.0));
    // Prefill is compute-bound at full bandwidth — shrinking the
    // share to half changes nothing — but a starved share pushes it
    // past the roofline knee onto the weight-stream floor.
    EXPECT_EQ(llm::prefillCycles(spec, 512, core, 4, 0.5),
              llm::prefillCycles(spec, 512, core, 4, 1.0));
    EXPECT_GT(llm::prefillCycles(spec, 512, core, 4, 0.1),
              llm::prefillCycles(spec, 512, core, 4, 1.0));
}

// ------------------------------------------- fleet integration

FleetConfig
llmFleet(LlmScheduler sched, unsigned tenants = 4,
         unsigned batch = 32, unsigned max_batch = 32,
         double rate = 12.0, std::uint64_t seed = 42)
{
    FleetConfig cfg;
    cfg.numBoards = 1;
    cfg.servingMode = ServingMode::LlmContinuous;
    cfg.llm.scheduler = sched;
    cfg.llm.pageTokens = 16;
    cfg.llm.maxBatch = max_batch;
    cfg.llm.promptTokens = 384;
    cfg.llm.promptTokensMax = 640;
    cfg.llm.outputTokens = 32;
    cfg.llm.outputTokensMax = 96;
    cfg.horizon = 2e9;
    cfg.maxCycles = 50.0 * cfg.horizon;
    for (unsigned i = 0; i < tenants; ++i) {
        ClusterTenantSpec t;
        t.model = ModelId::Llama;
        t.batch = batch;
        t.eus = 8;
        t.traffic.ratePerSec = rate;
        t.traffic.seed = seed + i;
        t.sloCycles = 3e9;
        t.maxQueueDepth = 64;
        cfg.tenants.push_back(t);
    }
    return cfg;
}

TEST(LlmServing, ContinuousBeatsStaticBatch)
{
    const auto cont = runFleet(llmFleet(LlmScheduler::Continuous));
    const auto stat = runFleet(llmFleet(LlmScheduler::StaticBatch));

    std::uint64_t cont_tokens = 0, stat_tokens = 0;
    Distribution cont_ttft, stat_ttft;
    for (const TenantResult &tr : cont.tenants) {
        cont_tokens += tr.llm.tokensGenerated;
        cont_ttft.merge(tr.llm.ttftCycles);
    }
    for (const TenantResult &tr : stat.tenants) {
        stat_tokens += tr.llm.tokensGenerated;
        stat_ttft.merge(tr.llm.ttftCycles);
    }
    // Same traffic and seeds: every admitted sequence decodes to its
    // drawn length under both schedulers.
    EXPECT_EQ(cont_tokens, stat_tokens);
    EXPECT_EQ(cont.completed, stat.completed);
    // Continuous batching drains the same tokens sooner (higher
    // tokens/s) and starts sequences sooner (lower p99 TTFT) — the
    // ISSUE acceptance shape, gated for real in bench_llm_serving.
    EXPECT_LT(cont.makespan, stat.makespan);
    EXPECT_LT(cont_ttft.percentile(0.99), stat_ttft.percentile(0.99));
    for (const TenantResult &tr : cont.tenants)
        EXPECT_GT(tr.llm.tokensPerSecond, 0.0);
}

TEST(LlmServing, ThreadInvariance)
{
    auto cfg = llmFleet(LlmScheduler::Continuous);
    const auto a = runFleet(cfg);
    cfg.threads = 4;
    const auto b = runFleet(cfg);
    cfg.threads = 3;
    const auto c = runFleet(cfg);
    expectFleetEq(a, b);
    expectFleetEq(a, c);
}

TEST(LlmServing, PreemptionConservesPagesAndRequests)
{
    // Batch-8 sizing (307 pages) under 16-deep continuous batching:
    // page pressure must trigger evictions, and every evicted page
    // must come back.
    auto cfg = llmFleet(LlmScheduler::Continuous, /*tenants=*/2,
                        /*batch=*/8, /*max_batch=*/16,
                        /*rate=*/20.0, /*seed=*/7);
    cfg.llm.outputTokens = 64;
    cfg.llm.outputTokensMax = 128;
    cfg.horizon = 1.5e9;
    cfg.maxCycles = 50.0 * cfg.horizon;
    for (auto &t : cfg.tenants)
        t.sloCycles = 6e9;
    const auto r = runFleet(cfg);

    std::uint64_t preempt = 0;
    for (const TenantResult &tr : r.tenants) {
        preempt += tr.llm.preemptions;
        EXPECT_GT(tr.llm.kvFailedAllocs, 0u);
        // Page conservation: the drained endpoint returned every
        // page it ever allocated (the in-run audit() enforces the
        // stronger per-step invariant).
        EXPECT_EQ(tr.llm.kvAllocOps, tr.llm.kvFreeOps);
        EXPECT_EQ(tr.llm.kvPages, 307u);
        EXPECT_LE(tr.llm.kvPageHighWater, tr.llm.kvPages);
    }
    EXPECT_GT(preempt, 0u);
    // Preempted sequences are re-prefilled, so prefills exceed
    // admitted sequences.
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_EQ(r.rejected, 0u);
}

TEST(LlmServing, BoardLossConservesPagesAndRequests)
{
    auto cfg = llmFleet(LlmScheduler::Continuous);
    FaultEvent loss;
    loss.at = 8e8;
    loss.kind = FaultKind::BoardLoss;
    loss.board = 0;
    loss.durationCycles = kCyclesInf;
    cfg.resilience.faults = {loss};
    const auto r = runFleet(cfg);

    EXPECT_EQ(r.faultsInjected, 1u);
    EXPECT_EQ(r.coreFailures, 4u);
    // Single-epoch LLM serving cannot restore (no later epoch to run
    // the checkpoint), so the half-decoded backlog is abandoned —
    // but request conservation must survive the loss.
    EXPECT_GT(r.lostRequests, 0u);
    EXPECT_EQ(r.completed + r.rejected, r.submitted);
    EXPECT_GE(r.rejected, r.lostRequests);
    // Every generated sequence was offered, including those stamped
    // after the fault-stopped endpoint's last step.
    for (size_t i = 0; i < r.tenants.size(); ++i)
        EXPECT_EQ(r.tenants[i].submitted,
                  generateArrivals(cfg.tenants[i].traffic, cfg.horizon,
                                   cfg.board.core.freqHz)
                      .size())
            << "tenant " << i;
    for (const TenantResult &tr : r.tenants) {
        // The fault-stopped endpoint still released every page: a
        // leak would have tripped the teardown audit (FatalError).
        EXPECT_EQ(tr.llm.kvAllocOps, tr.llm.kvFreeOps);
        EXPECT_GT(tr.llm.kvAllocOps, 0u);
    }
    // Fault runs are as deterministic as clean ones.
    const auto again = runFleet(cfg);
    expectFleetEq(r, again);
}

TEST(LlmServing, NonLlamaTenantIsFatal)
{
    auto cfg = llmFleet(LlmScheduler::Continuous, /*tenants=*/1);
    cfg.tenants[0].model = ModelId::Bert;
    EXPECT_THROW(runFleet(cfg), FatalError);
}

} // namespace
} // namespace neu10
