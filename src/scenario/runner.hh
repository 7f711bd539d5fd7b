/**
 * @file
 * Scenario execution: expand a parsed Scenario into the engine
 * configs (cluster/fleet, runtime/serving), run it, and render the
 * outcome as machine-readable JSON.
 *
 * Expansion: per-group vNPU sizing via the §III-B allocator,
 * `rho x freq / serviceEstimate` offered rates, `sloFactor x
 * serviceEstimate` SLOs, `seed + globalIndex` stream seeding, and
 * round-robin group interleave. The ScenarioExpand tests pin this
 * mapping key by key; the goldens pin the results of every committed
 * file.
 *
 * The JSON record follows the determinism contract: stable key
 * order, no wall-clock or host-dependent fields, and doubles printed
 * as shortest round-trip decimals (std::to_chars) — two identical
 * configs yield byte-identical files, which is what lets CI diff
 * runner output against checked-in goldens (scenarios/goldens/).
 */

#ifndef NEU10_SCENARIO_RUNNER_HH
#define NEU10_SCENARIO_RUNNER_HH

#include <string>

#include "cluster/fleet.hh"
#include "runtime/serving.hh"
#include "scenario/scenario.hh"

namespace neu10
{

/**
 * Expand an open-loop scenario into a FleetConfig. Smoke mode and
 * env overrides must already be applied (applyEnvOverrides).
 * @throws PanicError when called on a closed-loop scenario.
 */
FleetConfig toFleetConfig(const Scenario &scenario);

/**
 * Expand a closed-loop scenario into a ServingConfig.
 * @throws PanicError when called on an open-loop scenario.
 */
ServingConfig toServingConfig(const Scenario &scenario);

/** One executed scenario: exactly one of fleet / serving is live,
 * selected by @ref mode. */
struct ScenarioOutcome
{
    ScenarioMode mode = ScenarioMode::OpenLoop;
    FleetResult fleet;      ///< mode == OpenLoop
    ServingResult serving;  ///< mode == ClosedLoop

    /** Effective horizon the run used (0 in closed loop). */
    Cycles horizon = 0.0;

    /** Expanded tenant count. */
    unsigned tenants = 0;
};

/** Expand and execute @p scenario. Deterministic: identical
 * scenarios yield identical outcomes. */
ScenarioOutcome runScenario(const Scenario &scenario);

/**
 * Render @p outcome as the neu10-scenario-result-v2 JSON record (see
 * file doc and docs/SCENARIOS.md). Deterministic bytes; no paths,
 * hosts or wall-clock values.
 */
std::string outcomeJson(const Scenario &scenario,
                        const ScenarioOutcome &outcome);

/** outcomeJson() to a file. @throws FatalError when unwritable. */
void writeOutcomeJson(const std::string &path,
                      const Scenario &scenario,
                      const ScenarioOutcome &outcome);

} // namespace neu10

#endif // NEU10_SCENARIO_RUNNER_HH
