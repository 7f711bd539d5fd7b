// Fixture: exact floating-point equality in allocator-scope
// code. Never compiled.
#include <vector>

using Cycles = double;

bool
booksBalance(double charged, const std::vector<Cycles> &stalls)
{
    double remaining = charged;
    for (Cycles s : stalls)
        remaining -= s;
    if (remaining == 0.0)        // violation: literal comparison
        return true;
    return remaining != charged; // violation: double vs double
}
