// ParkStats bookkeeping of the Δ loop (ParkStepper), also used by
// FixpointMaintainer to turn its warm caches' lifetime counters into
// per-commit deltas. Defined in park_evaluator.cc.

#ifndef PARK_CORE_RUN_STATS_H_
#define PARK_CORE_RUN_STATS_H_

#include "core/park_evaluator.h"

namespace park {

/// Adds one Γ section's rule and scheduler counters to `stats`.
void RecordGammaSection(const GammaResult& gamma, ParkStats& stats);

/// Sets the planner counters to the lifetime totals of `plans`.
void RecordPlannerStats(const PlanCache& plans, ParkStats& stats);

/// Sets the pool counters and parallel timings to the lifetime totals of
/// `parallel`.
void RecordParallelStats(const ParallelGamma& parallel, ParkStats& stats);

/// Sets the storage counters (the columnar footprint summed over I°, I⁺
/// and I⁻) and the executor row counters from `exec_stats`.
void RecordStorageStats(const IInterpretation& interp,
                        const ExecStats& exec_stats, ParkStats& stats);

}  // namespace park

#endif  // PARK_CORE_RUN_STATS_H_
