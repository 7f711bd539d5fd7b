// Fixture: every banned randomness source in one file, none of it
// reachable from a sim entry point. Never compiled.
#include <cstdlib>
#include <ctime>
#include <random>
#include <chrono>

int
unseededDraw()
{
    srand(time(nullptr));                       // two violations
    return rand();                              // one violation
}

unsigned
hardwareEntropy()
{
    std::random_device rd;                      // one violation
    return rd();
}

long
wallClockStamp()
{
    const auto now = std::chrono::system_clock::now(); // one violation
    return now.time_since_epoch().count() + clock();   // one violation
}
