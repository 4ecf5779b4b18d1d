// S2 — columnar batch execution: wall-clock for the same fixpoint
// computation under the tuple-at-a-time executor vs the batch-at-a-time
// executor over columnar segments (ParkOptions::exec_mode), with an
// in-bench set-identity check (both executors must produce the same
// database and step counts, or the bench aborts). Emits
// BENCH_columnar.json with per-case times, the batch speedup, and the
// executor counters (stream rows, probe-join vs sorted-merge-join rows,
// compactions) so the join mix is inspectable.
//
// The join-heavy cases (closure, skew, chain) are the showcase: their
// first Γ step joins full relations and every later one joins Δ seeds
// against them, the regime where dictionary-coded equal-range probes and
// sorted-merge joins compete with per-tuple hash probing. The payroll
// case guards the other direction: thousands of tiny per-employee units,
// where batch setup and compaction must not regress the run.
//
//   bench_columnar [--smoke] [--case NAME] [output.json]
//                                            (default: BENCH_columnar.json)
//
// --smoke shrinks the workloads so CI can exercise the full path
// (including the JSON schema) in a couple of seconds; the timings of a
// smoke run are meaningless and the JSON says so.

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
  const char* exec = "tuple";
  double best_ms = 0;
  double speedup = 1.0;  // tuple best_ms / this best_ms
  size_t gamma_steps = 0;
  uint64_t batch_rows = 0;
  uint64_t probe_rows = 0;
  uint64_t merge_rows = 0;
  size_t storage_compactions = 0;
  size_t storage_segment_rows = 0;
};

/// Deterministic xorshift so fact generation needs no library RNG.
struct Rand {
  uint64_t state;
  explicit Rand(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Triangle query over one random edge relation: edge(X, Y) ⋈ edge(Y, Z)
/// with the closing edge(Z, X) as a fully-bound filter. The join graph is
/// a cycle, so every connected literal order has the same fan-out — there
/// is no cheap order for the planner to pick — and almost every candidate
/// path dies at the closing check, so the run is dominated by candidate
/// enumeration inside the executor rather than by the shared per-match
/// emission path. The probe keys (Y) repeat ~|E|/|V| times each, which is
/// the sorted-merge amortization showcase: the tuple executor chases one
/// hash-index node per candidate, the batch executor resolves each
/// distinct key once and walks contiguous sorted segment rows.
Workload MakeSkewWorkload(int num_nodes, int num_edges, uint64_t seed) {
  Workload w(MakeSymbolTable());
  w.program =
      ParseProgram(
          "tri: edge(X, Y), edge(Y, Z), edge(Z, X) -> +tri(X, Y, Z).\n",
          w.symbols)
          .value();
  Rand rng(seed);
  for (int i = 0; i < num_edges; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next() % num_nodes);
    int64_t b = static_cast<int64_t>(rng.Next() % num_nodes);
    w.database.Insert(IntAtom2(w.symbols, "edge", a, b));
  }
  w.description = StrFormat("triangle query, %d nodes / %d edges", num_nodes,
                            num_edges);
  return w;
}

/// Length-3 chain join over one edge relation, closed into a 4-cycle:
/// edge(X,Y) ⋈ edge(Y,Z) ⋈ edge(Z,W) with edge(W,X) as the closing
/// filter. Like the triangle, the cyclic join graph is order-proof, but
/// the chain is one join deeper so the intermediate batch is |E|·d²
/// rows — the stress test for batch materialization and duplicate-key
/// merge resolution.
Workload MakeChainWorkload(int num_nodes, int num_edges, uint64_t seed) {
  Workload w(MakeSymbolTable());
  w.program = ParseProgram(
                  "ring: edge(X, Y), edge(Y, Z), edge(Z, W), edge(W, X) "
                  "-> +ring(X, Z).\n",
                  w.symbols)
                  .value();
  Rand rng(seed);
  for (int i = 0; i < num_edges; ++i) {
    int64_t a = static_cast<int64_t>(rng.Next() % num_nodes);
    int64_t b = static_cast<int64_t>(rng.Next() % num_nodes);
    w.database.Insert(IntAtom2(w.symbols, "edge", a, b));
  }
  w.description = StrFormat("4-cycle chain query, %d nodes / %d edges",
                            num_nodes, num_edges);
  return w;
}

ParkResult RunOnce(const BenchCase& bench, ExecMode exec,
                   double* elapsed_ms) {
  ParkOptions options;
  options.exec_mode = exec;
  auto start = std::chrono::steady_clock::now();
  auto result = Park(bench.workload.program, bench.workload.database,
                     options);
  auto end = std::chrono::steady_clock::now();
  PARK_CHECK(result.ok()) << result.status().ToString();
  *elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return std::move(*result);
}

std::vector<ConfigResult> RunCase(const BenchCase& bench, int repetitions) {
  std::vector<ConfigResult> configs;
  std::string reference_db;
  size_t reference_steps = 0;
  for (ExecMode exec : {ExecMode::kTuple, ExecMode::kBatch}) {
    ConfigResult config;
    config.exec = exec == ExecMode::kTuple ? "tuple" : "batch";
    double best = -1;
    for (int rep = 0; rep < repetitions; ++rep) {
      double ms = 0;
      ParkResult result = RunOnce(bench, exec, &ms);
      if (best < 0 || ms < best) best = ms;
      std::string db = result.database.ToString();
      if (exec == ExecMode::kTuple && rep == 0) {
        reference_db = db;
        reference_steps = result.stats.gamma_steps;
      }
      // The whole point: the executor mode must never change the result.
      PARK_CHECK(db == reference_db)
          << bench.name << ": batch database differs from tuple result";
      PARK_CHECK(result.stats.gamma_steps == reference_steps)
          << bench.name << ": batch run took a different number of steps";
      config.gamma_steps = result.stats.gamma_steps;
      config.batch_rows = result.stats.exec_batch_rows;
      config.probe_rows = result.stats.exec_probe_rows;
      config.merge_rows = result.stats.exec_merge_rows;
      config.storage_compactions = result.stats.storage_compactions;
      config.storage_segment_rows = result.stats.storage_segment_rows;
    }
    config.best_ms = best;
    config.speedup = configs.empty() ? 1.0 : configs[0].best_ms / best;
    configs.push_back(config);
    std::printf(
        "  %-20s exec=%-5s  %8.2f ms  speedup %.2fx  "
        "(%llu merge / %llu probe row(s))\n",
        bench.name.c_str(), config.exec, best, config.speedup,
        static_cast<unsigned long long>(config.merge_rows),
        static_cast<unsigned long long>(config.probe_rows));
  }
  return configs;
}

std::string ToJson(
    const std::vector<std::pair<const BenchCase*, std::vector<ConfigResult>>>&
        results,
    bool smoke) {
  JsonWriter w = bench::BeginBenchJson("park-bench-columnar-v1");
  w.Key("smoke").Bool(smoke);
  w.Key("set_identical").Bool(true);
  w.Key("cases").BeginArray();
  for (const auto& [bench, configs] : results) {
    w.BeginObject();
    w.Key("name").String(bench->name);
    w.Key("configs").BeginArray();
    for (const ConfigResult& c : configs) {
      w.BeginObject();
      w.Key("exec").String(c.exec);
      w.Key("best_ms").Double(c.best_ms);
      w.Key("speedup").Double(c.speedup);
      w.Key("gamma_steps").UInt(c.gamma_steps);
      w.Key("batch_rows").UInt(c.batch_rows);
      w.Key("probe_rows").UInt(c.probe_rows);
      w.Key("merge_rows").UInt(c.merge_rows);
      w.Key("storage_compactions").UInt(c.storage_compactions);
      w.Key("storage_segment_rows").UInt(c.storage_segment_rows);
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
  std::string only_case;  // empty: run everything
  std::string out_path = "BENCH_columnar.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--case") == 0 && i + 1 < argc) {
      only_case = argv[++i];
    } else {
      out_path = argv[i];
    }
  }

  const int closure_nodes = smoke ? 48 : 192;
  const int closure_edges = smoke ? 96 : 384;
  const int skew_nodes = smoke ? 256 : 1024;
  const int skew_edges = smoke ? 2048 : 24576;
  const int chain_nodes = smoke ? 256 : 1024;
  const int chain_edges = smoke ? 1024 : 12288;
  const int payroll_employees = smoke ? 512 : 8192;
  const int repetitions = smoke ? 1 : 3;

  std::vector<BenchCase> cases;
  {
    BenchCase c{"closure",
                MakeTransitiveClosureWorkload(GraphShape::kRandom,
                                              closure_nodes, closure_edges,
                                              /*seed=*/17)};
    cases.push_back(std::move(c));
  }
  {
    BenchCase c{"skew",
                MakeSkewWorkload(skew_nodes, skew_edges, /*seed=*/41)};
    cases.push_back(std::move(c));
  }
  {
    BenchCase c{"chain", MakeChainWorkload(chain_nodes, chain_edges,
                                           /*seed=*/7)};
    cases.push_back(std::move(c));
  }
  {
    PayrollParams params;
    params.num_employees = payroll_employees;
    params.inactive_fraction = 0.1;
    params.seed = 23;
    BenchCase c{"payroll", MakePayrollWorkload(params)};
    cases.push_back(std::move(c));
  }

  std::printf("bench_columnar: %u hardware thread(s)%s\n",
              std::thread::hardware_concurrency(),
              smoke ? " [smoke mode: timings meaningless]" : "");
  std::vector<std::pair<const BenchCase*, std::vector<ConfigResult>>> results;
  for (const BenchCase& bench : cases) {
    if (!only_case.empty() && bench.name != only_case) continue;
    results.emplace_back(&bench, RunCase(bench, repetitions));
  }

  if (!bench::WriteBenchJson(out_path, ToJson(results, smoke))) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace park

int main(int argc, char** argv) { return park::Main(argc, argv); }
