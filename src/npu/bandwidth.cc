#include "npu/bandwidth.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace neu10
{

namespace
{

/** Largest consumer count ranked in a stack array. */
constexpr size_t kStackRanks = 16;

/** A consumer's water-filling level: demand / weight. No member
 * initializers, so the stack array of ranks is not zeroed per call. */
struct Rank
{
    double key;
    std::uint32_t idx;
};

/**
 * Stable insertion sort by key: only a strictly smaller key moves
 * left past another, so equal keys keep their order and the
 * permutation is the one std::stable_sort gives, without its
 * temporary buffer.
 */
void
sortRanks(std::span<Rank> ranks)
{
    for (size_t i = 1; i < ranks.size(); ++i) {
        const Rank cur = ranks[i];
        size_t j = i;
        for (; j > 0 && cur.key < ranks[j - 1].key; --j)
            ranks[j] = ranks[j - 1];
        ranks[j] = cur;
    }
}

} // anonymous namespace

void
maxMinAllocate(std::span<const double> demands, double capacity,
               std::span<double> grants, std::span<const double> weights)
{
    // Nothing to share: every policy's empty slot or VE pass ends
    // here, before any check or fill.
    const size_t n = demands.size();
    if (n == 0)
        return;
    // Capacities arrive from chains of grant subtractions, so allow
    // (and flatten) floating-point dust below zero.
    NEU10_ASSERT(capacity >= -1e-6, "negative capacity");
    NEU10_ASSERT(weights.empty() || weights.size() == demands.size(),
                 "weights size mismatch");
    NEU10_ASSERT(grants.size() == demands.size(), "grants size mismatch");

    std::fill(grants.begin(), grants.end(), 0.0);
    if (capacity <= 0.0)
        return;
    for (double x : weights)
        NEU10_ASSERT(x >= 0.0, "negative weight");

    auto weight = [&](size_t i) {
        return weights.empty() ? 1.0 : weights[i];
    };

    // Rank storage: a stack array, or a heap buffer above its size.
    std::array<Rank, kStackRanks> stack;
    std::vector<Rank> heap(n > kStackRanks ? n : 0);
    const std::span<Rank> ranks =
        n > kStackRanks ? std::span<Rank>(heap)
                        : std::span<Rank>(stack).first(n);
    for (size_t i = 0; i < n; ++i) {
        const double w = weight(i);
        ranks[i] = {w > 0 ? demands[i] / w : 0.0,
                    static_cast<std::uint32_t>(i)};
    }

    // Water-fill exactly: in demand/weight order, at each level either
    // everyone remaining is satisfied or the capacity splits by weight.
    sortRanks(ranks);

    double cap = capacity;
    double wsum = 0.0;
    for (const Rank &r : ranks)
        wsum += demands[r.idx] > 0 ? weight(r.idx) : 0.0;

    for (const Rank &r : ranks) {
        const size_t i = r.idx;
        const double w = weight(i);
        if (demands[i] <= 0.0 || w <= 0.0)
            continue;
        const double fair = cap * w / wsum;
        const double got = std::min(demands[i], fair);
        grants[i] = got;
        cap -= got;
        wsum -= w;
        if (cap <= 0.0 || wsum <= 0.0)
            break;
    }
}

} // namespace neu10
