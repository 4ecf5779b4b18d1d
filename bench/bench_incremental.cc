// INC — incremental fixpoint maintenance across commits: the same
// multi-commit script replayed against two ActiveDatabases, one with
// ParkOptions::maintenance_mode = kIncremental and one with it off, with
// an in-bench bit-identity check (every commit's inserted/deleted diff
// and the final stored instance must match exactly, or the bench
// aborts). Emits BENCH_incremental.json with per-config total commit
// times, the from-scratch/incremental speedup, and the maintenance
// counters (maintained_commits / atoms_rederived / cone_rules) that
// explain it: a small-|U| commit's seeded closure touches its cone
// only, while the from-scratch evaluator re-derives the whole fixpoint
// and diffs the whole database (docs/INCREMENTAL.md).
//
//   bench_incremental [--smoke] [output.json]
//   (default: BENCH_incremental.json)
//
// --smoke shrinks both workloads and skips the speedup gate so CI can
// exercise the full path (including the JSON schema and, at threads=2,
// the maintainer-owned parallel Γ pool for TSan) in a second; the
// timings of a smoke run are meaningless and the JSON says so.
//
// Non-smoke runs gate on EVERY measured config of both cases (kilorule
// and transitive closure, threads 1 and — when the host is wide
// enough — 4): incremental must be >= 3x faster than from-scratch, or
// the bench exits non-zero. The gate is honest by construction: the
// bench also checks that every scripted commit was actually served by
// the maintainer (maintained_commits == commits, zero fallbacks), so a
// silently-falling-back maintainer cannot "pass" at 1.0x parity.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "eca/active_database.h"
#include "park/park.h"
#include "util/string_util.h"

namespace park {
namespace {

/// One benchmark case: a program, a bulk-loaded base instance, and a
/// script of small commits (each a list of "+p(a)"-style updates). Both
/// cases are statically eligible (insert-only heads, purely positive
/// bodies) and every scripted commit passes the dynamic gates, so with
/// maintenance on the entire timed region runs the seeded closure.
struct BenchCase {
  std::string name;
  std::string rules;
  std::string facts;
  std::vector<std::vector<std::string>> script;
};

/// The kilorule shape (workload/kilorule_gen.h): `chains` independent
/// derivation chains of `levels` rules each, plus the two-rule cq/cs
/// SCC. Each commit drops one fresh fact into a rotating chain's
/// level-0 predicate: the cone is that one chain, while a from-scratch
/// run re-walks every chain for every fact loaded so far.
BenchCase MakeKiloruleCase(int chains, int levels, int facts, int commits) {
  BenchCase c;
  c.name = StrFormat("kilorule_%dx%d", chains, levels);
  for (int chain = 0; chain < chains; ++chain) {
    for (int level = 0; level < levels; ++level) {
      c.rules += StrFormat("r%d_%d: p%d_%d(X) -> +p%d_%d(X).\n", chain,
                           level, chain, level, chain, level + 1);
    }
  }
  c.rules += "scc_q: cq(X) -> +cs(X).\nscc_s: cs(X) -> +cq(X).\n";
  for (int chain = 0; chain < chains; ++chain) {
    for (int fact = 0; fact < facts; ++fact) {
      c.facts += StrFormat("p%d_0(seed%d).\n", chain, fact);
    }
  }
  for (int i = 0; i < commits; ++i) {
    c.script.push_back({StrFormat("+p%d_0(f%d)", i % chains, i)});
  }
  return c;
}

/// Recursive transitive closure over a path graph v0 -> ... -> v{n-1}
/// (closure has maximal depth, |t| = n(n-1)/2). Each commit grafts a
/// fresh node onto a vertex near the tail, so the cone is a handful of
/// new t atoms while a from-scratch run re-derives the whole quadratic
/// closure and diffs it against the stored instance.
BenchCase MakeClosureCase(int nodes, int commits) {
  BenchCase c;
  c.name = StrFormat("closure_path_%d", nodes);
  c.rules =
      "base: e(X, Y) -> +t(X, Y).\n"
      "step: t(X, Z), e(Z, Y) -> +t(X, Y).\n";
  for (int i = 0; i + 1 < nodes; ++i) {
    c.facts += StrFormat("e(v%d, v%d).\n", i, i + 1);
  }
  const int graft_at = nodes > 4 ? nodes - 4 : 0;
  for (int i = 0; i < commits; ++i) {
    c.script.push_back({StrFormat("+e(f%d, v%d)", i, graft_at)});
  }
  return c;
}

struct ScriptRun {
  double total_ms = 0;  // sum of Commit() wall times, nothing else
  std::vector<std::vector<std::string>> inserted;
  std::vector<std::vector<std::string>> deleted;
  std::string final_database;
  uint64_t maintained_commits = 0;
  uint64_t fallbacks = 0;
  uint64_t atoms_rederived = 0;
  uint64_t atoms_overdeleted = 0;
  uint64_t cone_rules = 0;  // of the last maintained commit
};

/// Replays the case's script against a fresh in-memory ActiveDatabase.
/// Setup and Stabilize (which, with maintenance on, is the full commit
/// that establishes the rule-stability invariant) stay outside the
/// timed region; only the scripted Commit() calls are timed.
ScriptRun RunScript(const BenchCase& bench_case, MaintenanceMode maint,
                    int threads) {
  ActiveDatabase db;
  {
    Status s = db.LoadRules(bench_case.rules);
    PARK_CHECK(s.ok()) << s.ToString();
    s = db.LoadFacts(bench_case.facts);
    PARK_CHECK(s.ok()) << s.ToString();
    ParkOptions options;
    options.maintenance_mode = maint;
    options.num_threads = threads;
    s = db.Configure(options);
    PARK_CHECK(s.ok()) << s.ToString();
    CommitResult stabilized = db.Stabilize();
    PARK_CHECK(stabilized.ok()) << stabilized.status().ToString();
  }
  ScriptRun run;
  const SymbolTable& symbols = *db.symbols();
  for (const std::vector<std::string>& commit : bench_case.script) {
    Transaction tx = db.Begin();
    for (const std::string& update : commit) {
      Status s = tx.Stage(update);
      PARK_CHECK(s.ok()) << update << ": " << s.ToString();
    }
    auto start = std::chrono::steady_clock::now();
    CommitResult report = std::move(tx).Commit();
    auto end = std::chrono::steady_clock::now();
    PARK_CHECK(report.ok()) << report.status().ToString();
    run.total_ms +=
        std::chrono::duration<double, std::milli>(end - start).count();
    std::vector<std::string> ins, del;
    for (const GroundAtom& atom : report->inserted) {
      ins.push_back(atom.ToString(symbols));
    }
    for (const GroundAtom& atom : report->deleted) {
      del.push_back(atom.ToString(symbols));
    }
    run.inserted.push_back(std::move(ins));
    run.deleted.push_back(std::move(del));
    run.maintained_commits += report->stats.maint_commits;
    run.fallbacks += report->stats.maint_full_recompute_fallbacks;
    run.atoms_rederived += report->stats.maint_atoms_rederived;
    run.atoms_overdeleted += report->stats.maint_atoms_overdeleted;
    if (report->stats.maint_commits > 0) {
      run.cone_rules = report->stats.maint_cone_rules;
    }
  }
  run.final_database = db.database().ToString();
  return run;
}

struct ConfigResult {
  int threads = 1;
  double scratch_ms = 0;
  double incremental_ms = 0;
  double speedup = 1.0;  // scratch / incremental
  size_t commits = 0;
  uint64_t maintained_commits = 0;
  uint64_t fallbacks = 0;
  uint64_t atoms_rederived = 0;
  uint64_t atoms_overdeleted = 0;
  uint64_t cone_rules = 0;
};

ConfigResult RunConfig(const BenchCase& bench_case, int threads,
                       int repetitions) {
  ConfigResult config;
  config.threads = threads;
  config.commits = bench_case.script.size();
  double best_off = -1;
  double best_on = -1;
  ScriptRun off_first;
  // All from-scratch reps first, then all incremental reps: interleaving
  // leaves each timed script with the other's allocator/cache wake. The
  // identity checks stay outside the timed region — RunScript times
  // Commit() only.
  for (int rep = 0; rep < repetitions; ++rep) {
    ScriptRun off = RunScript(bench_case, MaintenanceMode::kOff, threads);
    if (best_off < 0 || off.total_ms < best_off) best_off = off.total_ms;
    if (rep == 0) off_first = std::move(off);
  }
  for (int rep = 0; rep < repetitions; ++rep) {
    ScriptRun on =
        RunScript(bench_case, MaintenanceMode::kIncremental, threads);
    if (best_on < 0 || on.total_ms < best_on) best_on = on.total_ms;
    // The whole point: maintenance must be bit-identical, every run —
    // the per-commit diffs AND the final stored instance.
    PARK_CHECK(on.inserted == off_first.inserted &&
               on.deleted == off_first.deleted)
        << bench_case.name << "@" << threads
        << ": incremental commit diffs differ from the from-scratch runs";
    PARK_CHECK(on.final_database == off_first.final_database)
        << bench_case.name << "@" << threads
        << ": incremental final database differs from from-scratch";
    // Gate integrity: every scripted commit must have been served by the
    // maintainer, else the "speedup" would be measuring the fallback
    // path against itself.
    PARK_CHECK(on.maintained_commits == bench_case.script.size() &&
               on.fallbacks == 0)
        << bench_case.name << "@" << threads << ": only "
        << on.maintained_commits << "/" << bench_case.script.size()
        << " commits maintained (" << on.fallbacks << " fallbacks)";
    config.maintained_commits = on.maintained_commits;
    config.fallbacks = on.fallbacks;
    config.atoms_rederived = on.atoms_rederived;
    config.atoms_overdeleted = on.atoms_overdeleted;
    config.cone_rules = on.cone_rules;
  }
  config.scratch_ms = best_off;
  config.incremental_ms = best_on;
  config.speedup = best_on > 0 ? best_off / best_on : 1.0;
  std::printf(
      "  %-18s threads=%d  scratch %8.2f ms  incremental %8.2f ms  "
      "speedup %6.2fx  (%zu commits, %llu rederived, cone %llu rules)\n",
      bench_case.name.c_str(), threads, best_off, best_on, config.speedup,
      config.commits,
      static_cast<unsigned long long>(config.atoms_rederived),
      static_cast<unsigned long long>(config.cone_rules));
  return config;
}

struct CaseResult {
  std::string name;
  size_t rules = 0;
  std::vector<ConfigResult> configs;
};

std::string ToJson(const std::vector<CaseResult>& cases, bool smoke,
                   const char* gate) {
  JsonWriter w = bench::BeginBenchJson("park-bench-incremental-v1");
  w.Key("smoke").Bool(smoke);
  w.Key("bit_identical").Bool(true);
  // Every measured config >= 3x gate: "passed", or "skipped" in smoke
  // mode (tiny workloads, timings meaningless).
  w.Key("gate").String(gate);
  w.Key("cases").BeginArray();
  for (const CaseResult& c : cases) {
    w.BeginObject();
    w.Key("name").String(c.name);
    w.Key("rules").UInt(c.rules);
    w.Key("configs").BeginArray();
    for (const ConfigResult& r : c.configs) {
      w.BeginObject();
      w.Key("threads").Int(r.threads);
      w.Key("scratch_ms").Double(r.scratch_ms);
      w.Key("incremental_ms").Double(r.incremental_ms);
      w.Key("speedup").Double(r.speedup);
      w.Key("commits").UInt(r.commits);
      w.Key("maintained_commits").UInt(r.maintained_commits);
      w.Key("fallbacks").UInt(r.fallbacks);
      w.Key("atoms_rederived").UInt(r.atoms_rederived);
      w.Key("atoms_overdeleted").UInt(r.atoms_overdeleted);
      w.Key("cone_rules").UInt(r.cone_rules);
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
  std::string out_path = "BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  // Small |U| over a large maintained fixpoint is the headline shape:
  // each commit's cone is one chain (kilorule) or a few grafted closure
  // atoms, while the from-scratch evaluator re-derives everything and
  // diffs the whole instance. Smoke shrinks both an order of magnitude.
  std::vector<BenchCase> bench_cases;
  bench_cases.push_back(smoke ? MakeKiloruleCase(3, 12, 1, 6)
                              : MakeKiloruleCase(6, 192, 2, 24));
  bench_cases.push_back(smoke ? MakeClosureCase(12, 6)
                              : MakeClosureCase(96, 24));
  const int repetitions = smoke ? 1 : 3;

  std::vector<int> thread_counts{1};
  if (smoke) {
    // Smoke always includes a pooled config: it drives the
    // maintainer-owned ParallelGamma pool through the seeded closure
    // regardless of host width, which is what the CI TSan run is after.
    thread_counts.push_back(2);
  } else if (std::thread::hardware_concurrency() >= 4) {
    thread_counts.push_back(4);
  }

  std::printf("bench_incremental%s\n",
              smoke ? " [smoke mode: timings meaningless]" : "");
  std::vector<CaseResult> results;
  for (const BenchCase& bench_case : bench_cases) {
    CaseResult result;
    result.name = bench_case.name;
    {
      // Rule count for the JSON: parse once, outside any timing.
      ActiveDatabase db;
      Status s = db.LoadRules(bench_case.rules);
      PARK_CHECK(s.ok()) << s.ToString();
      result.rules = db.program().size();
    }
    for (int threads : thread_counts) {
      result.configs.push_back(RunConfig(bench_case, threads, repetitions));
    }
    results.push_back(std::move(result));
  }

  const char* gate = "skipped";
  if (!smoke) {
    for (const CaseResult& c : results) {
      for (const ConfigResult& r : c.configs) {
        if (r.speedup < 3.0) {
          std::fprintf(stderr,
                       "REGRESSION: %s@%d incremental speedup %.2fx "
                       "(want >= 3x)\n",
                       c.name.c_str(), r.threads, r.speedup);
          return 1;
        }
      }
    }
    gate = "passed";
  }

  if (!bench::WriteBenchJson(out_path, ToJson(results, smoke, gate))) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace park

int main(int argc, char** argv) { return park::Main(argc, argv); }
