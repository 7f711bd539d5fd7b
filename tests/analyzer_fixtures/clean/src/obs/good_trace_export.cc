// Fixture: the deterministic obs/ export idiom — an ordered map
// keyed by track index, so iteration order is the export order by
// construction. The unordered staging map is only ever *indexed*,
// never iterated; the analyzer must stay silent.
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

std::string
exportTracks(const std::map<int, std::vector<double>> &tracks,
             const std::unordered_map<int, std::string> &names)
{
    std::string json = "[";
    for (const auto &[track, stamps] : tracks) { // ordered: fine
        const auto it = names.find(track); // lookup, not iteration
        if (it != names.end())
            json += it->second;
        for (double s : stamps)
            json += std::to_string(s);
    }
    return json + "]";
}
