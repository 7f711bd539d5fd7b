// header_gate fixture (tests/CMakeLists.txt): relies on a transitive
// include for std::vector, so compiling it as its own TU must fail.
#ifndef NEU10_LINT_FIXTURE_BAD_HEADER_HH
#define NEU10_LINT_FIXTURE_BAD_HEADER_HH

#include <cstdint>

struct HiddenDependency
{
    std::vector<std::uint32_t> values; // <vector> never included
};

#endif
