// Fixture: a misspelt rule name in an allow() directive. The analyzer
// must reject it as a setup error naming file:line, not skip the
// directive and report the iteration it was written to excuse.
#include <unordered_map>

struct TallyResult
{
    unsigned count = 0;
};

TallyResult
tally(const std::unordered_map<int, double> &open)
{
    TallyResult result;
    // neu10-lint: allow(unordered-itr): counting ignores order
    for (const auto &[id, v] : open)
        ++result.count;
    return result;
}
