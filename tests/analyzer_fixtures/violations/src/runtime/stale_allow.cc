// Fixture: stale-allow. The first directive excuses nothing — the
// naked new it once covered became a unique_ptr — and must itself be
// flagged at its own line. The second still suppresses a live
// banned-random finding, so it must NOT be reported. The third names
// a whole-program rule that does not fire on its line (the global
// below is a mutable-global finding, not impure-path), so it is as
// stale as the first.
#include <cstdlib>
#include <memory>

namespace neu10
{

struct Widget
{
    int v = 0;
};

std::unique_ptr<Widget>
makeWidget()
{
    // neu10-lint: allow(naked-new): wraps the legacy pool // line 22
    return std::make_unique<Widget>();
}

int
legacyDraw()
{
    // neu10-lint: allow(banned-random): seeding the legacy shim once
    return rand();
}

// neu10-lint: allow(impure-path): waives the wrong rule
int g_shim_calls = 0;

} // namespace neu10
