// Kilorule workload: a program with thousands of rules of which only a
// handful are affected at any Γ step — the shape that makes per-step
// rule-selection cost (the all-rules affectedness scan the dependency
// scheduler eliminates, see docs/SCHEDULER.md) dominate the evaluation.
// No other generator produces this: the existing workloads have wide
// databases and narrow programs; this one has a wide program and a
// narrow, deep delta.

#ifndef PARK_WORKLOAD_KILORULE_GEN_H_
#define PARK_WORKLOAD_KILORULE_GEN_H_

#include "workload/workload.h"

namespace park {

/// `chains` independent derivation chains of `levels` rules each
/// (`p_c_i(X) -> +p_c_{i+1}(X)`), seeded with `facts` integer atoms in
/// each chain's level-0 predicate, plus a two-rule recursive block
/// (`cq(X) -> +cs(X)`, `cs(X) -> +cq(X)`) so the dependency graph has a
/// non-trivial SCC. Total rules: chains * levels + 2.
///
/// Under semi-naive evaluation the run takes ~`levels` Γ steps, each
/// affecting exactly `chains` rules — so an unscheduled step scans
/// chains * levels rules to find `chains`, while the scheduled step pays
/// O(1) watcher lookups. The final step's delta wakes no rule at all
/// (the chain-tip predicates have no watchers), exercising the
/// quick-exit no-op step.
Workload MakeKiloruleWorkload(int chains, int levels, int facts);

}  // namespace park

#endif  // PARK_WORKLOAD_KILORULE_GEN_H_
