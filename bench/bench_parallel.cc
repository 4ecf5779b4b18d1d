// P1 — parallel Γ scaling: wall-clock for the same fixpoint computation
// at 1/2/4/8 evaluation threads, with an in-bench bit-identity check
// (every multi-threaded run must reproduce the single-threaded database
// and step counts exactly, or the bench aborts). Emits BENCH_parallel.json
// with per-config times, speedups, and pool stats, including the
// intra-rule slice counters (sliced_units / slices) that show how much of
// the speedup came from splitting single rules rather than running rules
// side by side. The skew_single_rule case is the slicing showcase: one
// join rule dominates the section, so without slicing extra threads
// cannot help at all.
//
//   bench_parallel [--smoke] [output.json]   (default: BENCH_parallel.json)
//
// --smoke shrinks the workloads and the thread sweep so CI can exercise
// the full path (including the JSON schema) in a couple of seconds; the
// timings of a smoke run are meaningless and the JSON says so.
//
// Speedups only materialize on multi-core hosts; hardware_concurrency is
// recorded in the JSON so a 1-core container's flat curve is explainable.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "park/park.h"
#include "util/string_util.h"
#include "workload/graph_gen.h"
#include "workload/payroll_gen.h"

namespace park {
namespace {

struct BenchCase {
  std::string name;
  Workload workload;
};

struct ConfigResult {
  int threads = 1;
  double best_ms = 0;
  double speedup = 1.0;
  size_t gamma_steps = 0;
  size_t parallel_sections = 0;
  size_t parallel_tasks = 0;
  size_t parallel_sliced_units = 0;
  size_t parallel_slices = 0;
};

/// Intra-rule skew: one join rule owns essentially all the work while two
/// satellite rules stay trivial. Per-rule task generation alone would
/// serialize the section on the big rule; only candidate slicing lets
/// extra threads bite.
Workload MakeSkewWorkload(int num_nodes, int num_edges, uint64_t seed) {
  Workload w(MakeSymbolTable());
  w.program = ParseProgram(
                  "big: edge(X, Y), edge(Y, Z) -> +hop(X, Z).\n"
                  "t1: seed(X) -> +seen(X).\n"
                  "t2: seen(X), hop(X, X) -> +selfloop(X).\n",
                  w.symbols)
                  .value();
  uint64_t state = seed * 2654435761u + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < num_edges; ++i) {
    int64_t a = static_cast<int64_t>(next() % num_nodes);
    int64_t b = static_cast<int64_t>(next() % num_nodes);
    w.database.Insert(IntAtom2(w.symbols, "edge", a, b));
  }
  for (int64_t i = 0; i < 4; ++i) {
    w.database.Insert(IntAtom(w.symbols, "seed", i));
  }
  w.description = StrFormat("skew join, %d nodes / %d edges", num_nodes,
                            num_edges);
  return w;
}

ParkResult RunOnce(const Workload& w, int threads, double* elapsed_ms) {
  ParkOptions options;
  options.num_threads = threads;
  auto start = std::chrono::steady_clock::now();
  auto result = Park(w.program, w.database, options);
  auto end = std::chrono::steady_clock::now();
  PARK_CHECK(result.ok()) << result.status().ToString();
  *elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return std::move(*result);
}

std::vector<ConfigResult> RunCase(const BenchCase& bench,
                                  const std::vector<int>& thread_sweep,
                                  int repetitions) {
  std::vector<ConfigResult> configs;
  std::string reference_db;
  size_t reference_steps = 0;
  for (int threads : thread_sweep) {
    ConfigResult config;
    config.threads = threads;
    double best = -1;
    for (int rep = 0; rep < repetitions; ++rep) {
      double ms = 0;
      ParkResult result = RunOnce(bench.workload, threads, &ms);
      if (best < 0 || ms < best) best = ms;
      std::string db = result.database.ToString();
      if (threads == 1 && rep == 0) {
        reference_db = db;
        reference_steps = result.stats.gamma_steps;
      }
      // The whole point: parallelism must be bit-identical, every run.
      PARK_CHECK(db == reference_db)
          << bench.name << ": " << threads
          << "-thread database differs from the sequential result";
      PARK_CHECK(result.stats.gamma_steps == reference_steps)
          << bench.name << ": " << threads
          << "-thread run took a different number of steps";
      config.gamma_steps = result.stats.gamma_steps;
      config.parallel_sections = result.stats.parallel_sections;
      config.parallel_tasks = result.stats.parallel_tasks;
      config.parallel_sliced_units = result.stats.parallel_sliced_units;
      config.parallel_slices = result.stats.parallel_slices;
    }
    config.best_ms = best;
    config.speedup = configs.empty() ? 1.0 : configs[0].best_ms / best;
    configs.push_back(config);
    std::printf(
        "  %-28s threads=%d  %8.2f ms  speedup %.2fx  "
        "(%zu unit(s) sliced into %zu)\n",
        bench.name.c_str(), threads, best, config.speedup,
        config.parallel_sliced_units, config.parallel_slices);
  }
  return configs;
}

std::string ToJson(
    const std::vector<std::pair<std::string, std::vector<ConfigResult>>>&
        results,
    bool smoke, const char* gate) {
  JsonWriter w = bench::BeginBenchJson("park-bench-parallel-v1");
  w.Key("smoke").Bool(smoke);
  w.Key("bit_identical").Bool(true);
  // payroll@4 >= 0.95x regression gate: "passed", "failed" (the run
  // still exits 1), or "skipped" when the host has < 4 hardware threads /
  // the sweep has no 4-thread config (smoke mode). Recorded explicitly so
  // a skipped gate can never read as a clean pass — run_benches.sh
  // surfaces it.
  w.Key("gate").String(gate);
  w.Key("cases").BeginArray();
  for (const auto& [name, configs] : results) {
    w.BeginObject();
    w.Key("name").String(name);
    w.Key("configs").BeginArray();
    for (const ConfigResult& c : configs) {
      w.BeginObject();
      w.Key("threads").Int(c.threads);
      w.Key("best_ms").Double(c.best_ms);
      w.Key("speedup").Double(c.speedup);
      w.Key("gamma_steps").UInt(c.gamma_steps);
      w.Key("parallel_sections").UInt(c.parallel_sections);
      w.Key("parallel_tasks").UInt(c.parallel_tasks);
      w.Key("parallel_sliced_units").UInt(c.parallel_sliced_units);
      w.Key("parallel_slices").UInt(c.parallel_slices);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).str();
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  // Smoke mode exists for CI: same code path and JSON schema, workloads
  // an order of magnitude smaller, and a thread sweep short enough for a
  // shared two-core runner.
  const int closure_edges = smoke ? 128 : 1024;
  const int closure_nodes = smoke ? 64 : 256;
  const int payroll_employees = smoke ? 1024 : 16384;
  const int path_nodes = smoke ? 64 : 512;
  const int skew_edges = smoke ? 1024 : 8192;
  const std::vector<int> thread_sweep =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int repetitions = smoke ? 1 : 3;

  std::vector<BenchCase> cases;
  {
    BenchCase c{"closure_random_1024",
                MakeTransitiveClosureWorkload(GraphShape::kRandom,
                                              closure_nodes, closure_edges,
                                              /*seed=*/17)};
    cases.push_back(std::move(c));
  }
  {
    PayrollParams params;
    params.num_employees = payroll_employees;
    params.inactive_fraction = 0.1;
    params.seed = 23;
    BenchCase c{"payroll_16384", MakePayrollWorkload(params)};
    cases.push_back(std::move(c));
  }
  {
    BenchCase c{"closure_path_512",
                MakeTransitiveClosureWorkload(GraphShape::kPath, path_nodes,
                                              path_nodes - 1,
                                              /*seed=*/1)};
    cases.push_back(std::move(c));
  }
  {
    BenchCase c{"skew_single_rule",
                MakeSkewWorkload(/*num_nodes=*/512, skew_edges,
                                 /*seed=*/41)};
    cases.push_back(std::move(c));
  }

  std::printf("bench_parallel: %u hardware thread(s)%s\n",
              std::thread::hardware_concurrency(),
              smoke ? " [smoke mode: timings meaningless]" : "");
  std::vector<std::pair<std::string, std::vector<ConfigResult>>> results;
  for (const BenchCase& bench : cases) {
    results.emplace_back(bench.name,
                         RunCase(bench, thread_sweep, repetitions));
  }

  // Regression gate for the tiny-unit scheduling fix: payroll's many
  // per-employee rule units each carry almost no work, so parallelism
  // must at worst break even (the work-estimate gate keeps tiny units
  // from paying counting and task-dispatch overhead). Only meaningful
  // where 4 threads actually exist; when they don't (or the smoke sweep
  // never reaches 4 threads) the JSON records the skip explicitly
  // instead of silently looking like a pass.
  const char* gate = "skipped";
  if (std::thread::hardware_concurrency() >= 4) {
    for (const auto& [name, configs] : results) {
      if (name != "payroll_16384") continue;
      for (const ConfigResult& c : configs) {
        if (c.threads != 4) continue;
        if (c.speedup < 0.95) {
          std::fprintf(stderr,
                       "REGRESSION: payroll_16384 at 4 threads runs at "
                       "%.2fx the sequential speed (want >= 0.95x)\n",
                       c.speedup);
          gate = "failed";
          break;
        }
        gate = "passed";
      }
    }
  }
  if (std::strcmp(gate, "skipped") == 0) {
    std::fprintf(stderr,
                 "notice: payroll@4 regression gate skipped (%u hardware "
                 "thread(s), sweep max %d)\n",
                 std::thread::hardware_concurrency(),
                 thread_sweep.back());
  }

  if (!bench::WriteBenchJson(out_path, ToJson(results, smoke, gate))) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  // A failed gate still fails the run; the JSON written above records
  // the numbers that failed it.
  return std::strcmp(gate, "failed") == 0 ? 1 : 0;
}

}  // namespace
}  // namespace park

int main(int argc, char** argv) { return park::Main(argc, argv); }
