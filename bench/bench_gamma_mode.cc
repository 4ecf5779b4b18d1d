// A2 — ablation of the Γ evaluation strategy: the paper's literal
// "apply all rules in parallel at every step" (kNaive) vs semi-naive
// evaluation (kSemiNaive), whose scheduler skips the rules no new mark
// can wake and whose seeds enumerate only new completions. Same semantics
// (asserted continuously by gamma_mode_test); this bench measures the
// work saved — dramatic on programs with many rules that fire rarely and
// on deep recursion, negligible on tiny programs where every rule is live
// every step.

#include <benchmark/benchmark.h>

#include "park/park.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"

namespace park {
namespace {

/// Closure over a path graph plus `extra_rules` rules for unrelated,
/// never-populated predicates — the "wide schema, narrow activity"
/// shape of real trigger sets.
struct WideScenario {
  std::shared_ptr<SymbolTable> symbols = MakeSymbolTable();
  Program program{symbols};
  Database database{symbols};
};

WideScenario MakeWideScenario(int chain, int extra_rules) {
  WideScenario s;
  std::string rules =
      "edge(X, Y) -> +path(X, Y). path(X, Y), edge(Y, Z) -> +path(X, Z).";
  for (int i = 0; i < extra_rules; ++i) {
    rules += StrFormat(" src%d(X) -> +dst%d(X).", i, i);
  }
  s.program = ParseProgram(rules, s.symbols).value();
  std::string facts;
  for (int i = 0; i < chain; ++i) {
    facts += StrFormat("edge(%d, %d). ", i, i + 1);
  }
  s.database = ParseDatabase(facts, s.symbols).value();
  return s;
}

void RunWide(benchmark::State& state, GammaMode mode) {
  WideScenario s = MakeWideScenario(/*chain=*/48,
                                    static_cast<int>(state.range(0)));
  ParkStats last;
  for (auto _ : state) {
    ParkOptions options;
    options.gamma_mode = mode;
    auto result = Park(s.program, s.database, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    last = result->stats;
    benchmark::DoNotOptimize(result->database);
  }
  state.counters["rule_evals"] =
      static_cast<double>(last.rule_evaluations);
  state.counters["rules"] = static_cast<double>(s.program.size());
}

void BM_WideNaive(benchmark::State& state) {
  RunWide(state, GammaMode::kNaive);
}
void BM_WideSemiNaive(benchmark::State& state) {
  RunWide(state, GammaMode::kSemiNaive);
}
BENCHMARK(BM_WideNaive)->Arg(0)->Arg(64)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WideSemiNaive)->Arg(0)->Arg(64)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// Deep recursive closure: the case where per-literal deltas dominate —
// naive Γ re-derives the entire known closure at every step; semi-naive
// only extends the frontier.
void RunClosure(benchmark::State& state, GammaMode mode) {
  Workload w = MakeTransitiveClosureWorkload(
      GraphShape::kPath, static_cast<int>(state.range(0)), 0, 1);
  ParkStats last;
  for (auto _ : state) {
    ParkOptions options;
    options.gamma_mode = mode;
    auto result = Park(w.program, w.database, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    last = result->stats;
    benchmark::DoNotOptimize(result->database);
  }
  state.counters["rule_evals"] =
      static_cast<double>(last.rule_evaluations);
  state.counters["derived"] = static_cast<double>(last.derived_marks);
}

void BM_ClosureNaive(benchmark::State& state) {
  RunClosure(state, GammaMode::kNaive);
}
void BM_ClosureSemiNaive(benchmark::State& state) {
  RunClosure(state, GammaMode::kSemiNaive);
}
BENCHMARK(BM_ClosureNaive)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosureSemiNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// On conflict-dense flat workloads both modes do the same work (all rules
// live in step 1): the semi-naive overhead must be ~zero.
void RunFlat(benchmark::State& state, GammaMode mode) {
  Workload w = MakeConflictPairsWorkload(512, 0.5, 83);
  ParkStats last;
  for (auto _ : state) {
    ParkOptions options;
    options.gamma_mode = mode;
    auto result = Park(w.program, w.database, options);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    last = result->stats;
    benchmark::DoNotOptimize(result->database);
  }
  state.counters["rule_evals"] =
      static_cast<double>(last.rule_evaluations);
}

void BM_FlatNaive(benchmark::State& state) {
  RunFlat(state, GammaMode::kNaive);
}
void BM_FlatSemiNaive(benchmark::State& state) {
  RunFlat(state, GammaMode::kSemiNaive);
}
BENCHMARK(BM_FlatNaive)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FlatSemiNaive)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace park

BENCHMARK_MAIN();
