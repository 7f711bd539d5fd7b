// Fixture: idioms the determinism analyzer must NOT flag — the
// seeded Rng, sorted-after-iteration behind an allow(), sentinel
// equality behind an allow(), deleted special members, and variables
// that merely *name-collide* with banned calls (Clock clock(...)).
#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

using Cycles = double;
constexpr Cycles kInf = std::numeric_limits<double>::infinity();

struct Clock
{
    explicit Clock(double hz) : hz_(hz) {}
    double hz_;
};

struct TallyResult
{
    std::vector<Cycles> stamps;
};

class Tally
{
  public:
    Tally(const Tally &) = delete;            // not a naked delete
    Tally &operator=(const Tally &) = delete; // not a naked delete
    Tally() = default;

    TallyResult
    drain(const std::unordered_map<int, Cycles> &open, double freq)
    {
        const Clock clock(freq); // declaration, not ::clock()
        TallyResult result;
        // neu10-lint: allow(unordered-iter): sorted immediately
        // below, so hash order never reaches the result.
        for (const auto &[id, stamp] : open)
            result.stamps.push_back(stamp);
        std::sort(result.stamps.begin(), result.stamps.end());
        for (Cycles s : result.stamps) {
            // neu10-lint: allow(float-eq): kInf is an exact
            // sentinel, never computed.
            if (s == kInf)
                break;
        }
        return result;
    }

  private:
    std::unique_ptr<int> owned_ = std::make_unique<int>(0);
};
