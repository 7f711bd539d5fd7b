// Fixture: hash-order iteration on an obs/ export path. No
// *Result type appears anywhere in this file — the rule must fire on
// the path scope alone, because the exported byte stream is what the
// trace determinism tests compare; `tracks` is a parameter. Never
// compiled.
#include <string>
#include <unordered_map>
#include <vector>

std::string
exportTracks(const std::unordered_map<int, std::vector<double>> &tracks)
{
    std::string json = "[";
    for (const auto &[track, stamps] : tracks) { // violation: range-for
        json += std::to_string(track);
        for (double s : stamps)
            json += "," + std::to_string(s);
    }
    std::unordered_map<std::string, double> totals;
    totals["events"] = 1.0;
    for (auto it = totals.begin(); it != totals.end(); ++it) // violation
        json += it->first;
    return json + "]";
}
