// Fixture: hash-order iteration over an unordered parameter and a
// local, both feeding a *Result. Never compiled.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

struct ScanResult
{
    std::vector<std::uint64_t> ids;
    double total = 0.0;
};

ScanResult
collect(const std::unordered_map<std::uint64_t, double> &table)
{
    std::unordered_set<std::uint64_t> seen;
    ScanResult result;
    for (const auto &[id, value] : table) { // violation: range-for
        result.ids.push_back(id);
        result.total += value;
        seen.insert(id);
    }
    for (auto it = seen.begin(); it != seen.end(); ++it) // violation
        result.total += 1.0;
    return result;
}
