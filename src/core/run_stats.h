// ParkStats bookkeeping of the Δ loop (ParkStepper). Defined in
// park_evaluator.cc.

#ifndef PARK_CORE_RUN_STATS_H_
#define PARK_CORE_RUN_STATS_H_

#include "core/park_evaluator.h"

namespace park {

/// Adds one Γ section's rule and scheduler counters to `stats`.
void RecordGammaSection(const GammaResult& gamma, ParkStats& stats);

/// Sets the planner counters to what `plans` counted since `base` was
/// recorded from it; with a zero `base`, since the cache was built.
void RecordPlannerStats(const PlanCache& plans, const ParkStats& base,
                        ParkStats& stats);

/// Sets the pool counters and parallel timings to what `parallel` counted
/// since `base` was recorded from it. The peak section is the pool's own
/// since its last ThreadPool::ResetMaxSectionTasks().
void RecordParallelStats(const ParallelGamma& parallel,
                         const ParkStats& base, ParkStats& stats);

/// Sets the storage counters (the columnar footprint summed over I°, I⁺
/// and I⁻) and the executor row counters from `exec_stats`.
void RecordStorageStats(const IInterpretation& interp,
                        const ExecStats& exec_stats, ParkStats& stats);

}  // namespace park

#endif  // PARK_CORE_RUN_STATS_H_
