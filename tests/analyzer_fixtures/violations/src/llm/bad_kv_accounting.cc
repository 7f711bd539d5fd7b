// Fixture: the two determinism bugs the llm/ scope exists to
// catch — exact FP equality in KV-page accounting and hash-order
// iteration over per-sequence page books (llm/ is a deterministic-
// export scope, so the rule fires on the path alone, no *Result
// type needed). Never compiled.
//
#include <cstdint>
#include <unordered_map>
#include <vector>

using Cycles = double;

bool
poolIsFull(double occupancy, Cycles lastFreeAt, Cycles now)
{
    if (occupancy == 1.0)      // violation: literal comparison
        return true;
    return lastFreeAt != now;  // violation: Cycles vs Cycles
}

std::vector<std::uint32_t>
sweepHolders()
{
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> books;
    std::vector<std::uint32_t> freed;
    for (const auto &[seq, pages] : books) { // violation: range-for
        freed.insert(freed.end(), pages.begin(), pages.end());
        static_cast<void>(seq);
    }
    for (auto it = books.begin(); it != books.end(); ++it) // violation
        freed.push_back(static_cast<std::uint32_t>(it->second.size()));
    return freed;
}
