// parkcli: a small command-line driver around the library.
//
//   parkcli --rules FILE --facts FILE [options]
//
// Options:
//   --rules FILE       active-rule program (required)
//   --facts FILE       initial database instance (required)
//   --update ±atom     transaction update; repeatable (e.g. --update +q(b))
//   --policy NAME      inertia (default) | priority | specificity |
//                      insert | delete | random:<seed> | interactive
//   --block-first      resolve one conflict per restart (§4.2 refinement):
//                      the smallest clashing atom by interned id, so the
//                      choice follows where names first appear in the
//                      rule and fact text
//   --max-steps N      abort evaluation after N Γ steps (default 1000000)
//   --deadline-ms N    abort evaluation after N wall-clock milliseconds
//                      (cooperative: fires mid-step, exit code 3)
//   --max-memory-bytes N
//                      abort evaluation once scratch memory exceeds N
//                      bytes (exit code 4)
//   --max-derivations N
//                      abort evaluation after N derivations (exit code 4)
//   --threads N        Γ evaluation threads (default 1 = sequential;
//                      0 = one per hardware thread); results identical
//   --maintenance NAME on | off (default) — incremental fixpoint
//                      maintenance across commits (docs/INCREMENTAL.md):
//                      on, an ActiveDatabase keeps its materialized PARK
//                      result alive between commits and serves eligible
//                      commits by a seeded closure at cost ~|U| instead
//                      of re-running from scratch; ineligible commits
//                      transparently fall back. Results are
//                      bit-identical either way. parkcli runs a single
//                      one-shot evaluation, so the flag mainly matters
//                      for the stats block ("maintenance") it surfaces
//   --stats-json FILE  write evaluation stats (park-stats-v1 JSON,
//                      ParkStats::ToJson) to FILE; "-" means stdout
//                      (the human-readable report then moves to stderr
//                      so stdout stays parseable). Implies phase-timing
//                      collection.
//   --observe          stream run-observer events (TracingObserver) to
//                      stderr as evaluation progresses
//   --trace            print the full fixpoint trace
//   --provenance       print which rule instances derived each change
//   --explain          print the parsed program and analysis to stdout,
//                      and each rule's chosen plan — literal order, probe
//                      column per literal, estimated cardinalities — to
//                      stderr before the run (replans during the run
//                      stream through --observe)
//   --serve-demo       self-contained tour of the concurrent Session
//                      front-end (docs/SERVING.md): writer threads
//                      group-committing while reader threads query
//                      pinned snapshots; prints the serving counters.
//                      Ignores every other flag
//
// Exit status — scripts can branch on WHY a run stopped:
//   0  success
//   1  generic error (bad input files, evaluation errors not below)
//   2  usage error (unknown/malformed flags, missing --rules/--facts)
//   3  deadline exceeded (--deadline-ms)
//   4  resource exhausted (--max-memory-bytes / --max-derivations /
//      --max-steps budgets)
//   5  data loss (corrupt durable state)
//   6  transient I/O failure survived past the retry budget
//   7  cancelled

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "engine/matcher.h"
#include "util/string_util.h"
#include "park/park.h"

namespace {

park::Result<park::PolicyPtr> MakePolicy(const std::string& name) {
  if (name == "inertia") return park::MakeInertiaPolicy();
  if (name == "priority") return park::MakeRulePriorityPolicy();
  if (name == "specificity") {
    // Specificity is partial; fall back to inertia on ties.
    return park::MakeCompositePolicy(
        {park::MakeSpecificityPolicy(), park::MakeInertiaPolicy()});
  }
  if (name == "insert") return park::MakeAlwaysInsertPolicy();
  if (name == "delete") return park::MakeAlwaysDeletePolicy();
  if (name.rfind("random:", 0) == 0) {
    auto seed = park::ParseInt64(name.substr(7));
    if (!seed.has_value()) {
      return park::InvalidArgumentError("bad seed in --policy " + name);
    }
    return park::MakeRandomPolicy(static_cast<uint64_t>(*seed));
  }
  if (name == "interactive") {
    return park::MakeStreamInteractivePolicy(std::cin, std::cout);
  }
  return park::InvalidArgumentError(
      "unknown policy '" + name +
      "' (inertia|priority|specificity|insert|delete|random:<seed>|"
      "interactive)");
}

/// The --explain dump. Program text and analysis go to stdout; the plan
/// dump goes to STDERR (like --observe's live replan lines) so piping the
/// result leaves stdout clean. Plans are compiled against the initial
/// database's statistics — the same plans the evaluation starts with;
/// drift replans during the run surface via --observe.
void PrintExplain(const park::Program& program, const park::Database& db) {
  std::printf("program (%zu rule(s)):\n", program.size());
  std::printf("%s", park::ProgramToString(program).c_str());
  park::ProgramAnalysis analysis = park::AnalyzeProgram(program);
  std::printf("\nanalysis:\n");
  std::printf("  recursive:        %s\n",
              analysis.is_recursive ? "yes" : "no");
  std::printf("  uses ECA events:  %s\n",
              analysis.uses_events ? "yes" : "no");
  std::printf("  max variables:    %d\n", analysis.max_rule_variables);
  std::printf("  conflict-capable predicates:");
  if (analysis.potentially_conflicting_predicates.empty()) {
    std::printf(" none");
  }
  for (park::PredicateId pred :
       analysis.potentially_conflicting_predicates) {
    std::printf(" %s", program.symbols()->PredicateName(pred).c_str());
  }
  std::printf("\n  conflict-capable rule pairs:");
  if (analysis.potentially_conflicting_rule_pairs.empty()) {
    std::printf(" none");
  }
  for (const auto& [inserter, deleter] :
       analysis.potentially_conflicting_rule_pairs) {
    std::printf(" (#%d,#%d)", inserter, deleter);
  }
  std::printf("\n");
  park::IInterpretation interp(&db);
  std::fprintf(stderr, "body evaluation plans:\n");
  for (const park::Rule& rule : program.rules()) {
    park::CompiledPlan plan =
        park::CompilePlan(rule, /*seed_index=*/-1, interp);
    std::fprintf(stderr, "  %s\n",
                 park::ExplainPlanLine(park::ExplainPlan(plan)).c_str());
  }
}

/// --serve-demo: an in-memory Session with 4 writer threads committing
/// concurrently (folded by group commit) while 2 reader threads query
/// snapshot-isolated state, then a dump of the serving counters. The
/// smallest end-to-end smoke of the concurrent serving core — CI runs it
/// headless (no input files needed).
int RunServeDemo() {
  park::Session::Params params;
  params.rules = "onboard: +emp(X) -> +active(X).";
  params.max_group_size = 8;
  auto session_or = park::Session::Create(std::move(params));
  if (!session_or.ok()) {
    std::fprintf(stderr, "serve-demo: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  park::Session& session = **session_or;

  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kCommitsPerWriter = 25;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        park::Transaction tx = session.Begin();
        tx.Insert("emp", {park::StrFormat("w%d_%d", w, i)});
        auto report = std::move(tx).Commit();
        if (!report.ok()) {
          std::fprintf(stderr, "serve-demo: commit failed: %s\n",
                       report.status().ToString().c_str());
          failed.store(true);
          return;
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        park::Snapshot snap = session.Snapshot();
        auto hits = snap.Query("active(X)");
        if (!hits.ok()) {
          std::fprintf(stderr, "serve-demo: snapshot query failed: %s\n",
                       hits.status().ToString().c_str());
          failed.store(true);
          return;
        }
        reads.fetch_add(1);
        std::this_thread::yield();
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  if (failed.load()) return 1;

  park::Snapshot final_snap = session.Snapshot();
  auto active = final_snap.Query("active(X)");
  if (!active.ok() ||
      active->size() != static_cast<size_t>(kWriters * kCommitsPerWriter)) {
    std::fprintf(stderr, "serve-demo: expected %d active rows, got %zu\n",
                 kWriters * kCommitsPerWriter,
                 active.ok() ? active->size() : 0);
    return 1;
  }

  const park::ParkStats::ServingCounters stats = session.serving_stats();
  std::printf("serve-demo: %d writer(s) x %d commit(s), %d reader(s)\n",
              kWriters, kCommitsPerWriter, kReaders);
  std::printf("  active rows:        %zu\n", active->size());
  std::printf("  snapshot reads:     %llu\n",
              static_cast<unsigned long long>(reads.load()));
  std::printf("  batches:            %llu (mean size %.2f, max %llu)\n",
              static_cast<unsigned long long>(stats.batches),
              stats.batches > 0
                  ? static_cast<double>(stats.batched_txns) / stats.batches
                  : 0.0,
              static_cast<unsigned long long>(stats.max_batch_size));
  std::printf("  poisoned batches:   %llu (%llu individual retries)\n",
              static_cast<unsigned long long>(stats.poisoned_batches),
              static_cast<unsigned long long>(stats.individual_retries));
  std::printf("  snapshots opened:   %llu (%llu still pinned)\n",
              static_cast<unsigned long long>(stats.snapshots_opened),
              static_cast<unsigned long long>(stats.snapshots_pinned));
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --rules FILE --facts FILE [--update ±atom]...\n"
               "          [--policy NAME] [--block-first] [--max-steps N]\n"
               "          [--deadline-ms N] [--threads N]\n"
               "          [--maintenance on|off] [--stats-json FILE]\n"
               "          [--max-memory-bytes N] [--max-derivations N]\n"
               "          [--observe] [--trace] [--explain]\n"
               "       %s --serve-demo\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 deadline,\n"
               "            4 resource-exhausted, 5 data-loss,\n"
               "            6 transient-io, 7 cancelled\n"
               "--block-first resolves the smallest clashing atom first,\n"
               "ordered by interned ids: by where its predicate and\n"
               "constants first appear in the rule and fact text\n",
               argv0, argv0);
  return 2;
}

/// Exit code for a failed run: the governance/durability codes get
/// distinct exits so scripts can branch on WHY the run stopped.
int ExitCodeFor(const park::Status& status) {
  switch (status.code()) {
    case park::StatusCode::kDeadlineExceeded:
      return 3;
    case park::StatusCode::kResourceExhausted:
      return 4;
    case park::StatusCode::kDataLoss:
      return 5;
    case park::StatusCode::kUnavailable:
      return 6;
    case park::StatusCode::kCancelled:
      return 7;
    default:
      return 1;
  }
}

/// Parses integer flag `flag` from text `v` and range-checks it against
/// [min, max] — int64 parses that would silently narrow (e.g. a --threads
/// value overflowing int) are rejected with a clear error instead.
bool ParseIntFlag(const char* flag, const char* v, int64_t min, int64_t max,
                  int64_t* out) {
  auto parsed = park::ParseInt64(v);
  if (!parsed.has_value() || *parsed < min || *parsed > max) {
    std::fprintf(stderr,
                 "%s wants an integer in [%lld, %lld], got '%s'\n", flag,
                 static_cast<long long>(min), static_cast<long long>(max),
                 v);
    return false;
  }
  *out = *parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string rules_path;
  std::string facts_path;
  std::vector<std::string> update_texts;
  std::string policy_name = "inertia";
  std::string stats_json_path;
  bool block_first = false;
  bool observe = false;
  bool trace = false;
  bool explain = false;
  bool provenance = false;
  park::ParkOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--rules") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      rules_path = v;
    } else if (arg == "--facts") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      facts_path = v;
    } else if (arg == "--update") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      update_texts.push_back(v);
    } else if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      policy_name = v;
    } else if (arg == "--block-first") {
      block_first = true;
    } else if (arg == "--max-steps") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      int64_t steps = 0;
      // size_t can be narrower than int64 (32-bit hosts); bound by both.
      int64_t max = static_cast<int64_t>(
          std::min<uint64_t>(std::numeric_limits<size_t>::max(),
                             std::numeric_limits<int64_t>::max()));
      if (!ParseIntFlag("--max-steps", v, 1, max, &steps)) return 2;
      options.max_steps = static_cast<size_t>(steps);
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      int64_t deadline = 0;
      if (!ParseIntFlag("--deadline-ms", v, 1,
                        std::numeric_limits<int64_t>::max(), &deadline)) {
        return 2;
      }
      options.deadline_ms = deadline;
    } else if (arg == "--max-memory-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      int64_t bytes = 0;
      if (!ParseIntFlag("--max-memory-bytes", v, 1,
                        std::numeric_limits<int64_t>::max(), &bytes)) {
        return 2;
      }
      options.max_memory_bytes = static_cast<uint64_t>(bytes);
    } else if (arg == "--max-derivations") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      int64_t derivations = 0;
      if (!ParseIntFlag("--max-derivations", v, 1,
                        std::numeric_limits<int64_t>::max(), &derivations)) {
        return 2;
      }
      options.max_derivations = static_cast<uint64_t>(derivations);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      int64_t threads = 0;
      if (!ParseIntFlag("--threads", v, 0,
                        std::numeric_limits<int>::max(), &threads)) {
        return 2;
      }
      options.num_threads = static_cast<int>(threads);
    } else if (arg == "--maintenance") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "on") == 0) {
        options.maintenance_mode = park::MaintenanceMode::kIncremental;
      } else if (std::strcmp(v, "off") == 0) {
        options.maintenance_mode = park::MaintenanceMode::kOff;
      } else {
        std::fprintf(stderr,
                     "--maintenance wants 'on' or 'off', got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--stats-json") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      stats_json_path = v;
    } else if (arg == "--observe") {
      observe = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--provenance") {
      provenance = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--serve-demo") {
      return RunServeDemo();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (rules_path.empty() || facts_path.empty()) return Usage(argv[0]);

  // A missing, unreadable or unparsable file (a directory included) is a
  // bad input file; the status names the path.
  auto symbols = park::MakeSymbolTable();
  auto program = park::ReadProgramFile(rules_path, symbols);
  if (!program.ok()) {
    std::fprintf(stderr, "--rules: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  auto db = park::ReadDatabaseFile(facts_path, symbols);
  if (!db.ok()) {
    std::fprintf(stderr, "--facts: %s\n", db.status().ToString().c_str());
    return 1;
  }

  if (explain) PrintExplain(*program, *db);

  park::UpdateSet updates;
  for (const std::string& text : update_texts) {
    park::Status status = updates.AddParsed(text, symbols);
    if (!status.ok()) {
      std::fprintf(stderr, "--update %s: %s\n", text.c_str(),
                   status.ToString().c_str());
      return 1;
    }
  }

  auto policy = MakePolicy(policy_name);
  if (!policy.ok()) {
    std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
    return 1;
  }

  options.policy = *policy;
  options.trace_level =
      trace ? park::TraceLevel::kFull : park::TraceLevel::kNone;
  options.block_granularity =
      block_first ? park::BlockGranularity::kFirstConflictOnly
                  : park::BlockGranularity::kAllConflicts;
  options.record_provenance = provenance;
  options.collect_timings = !stats_json_path.empty();
  park::TracingObserver tracer(std::cerr, symbols.get());
  if (observe) options.observer = &tracer;

  {
    park::Status status = park::ValidateOptions(options);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  auto result = park::Park(*db, *program, updates.updates(), options);
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 result.status().ToString().c_str());
    return ExitCodeFor(result.status());
  }

  // `--stats-json -` reserves stdout for the JSON document; the
  // human-readable report moves to stderr so stdout stays parseable.
  std::FILE* report = stats_json_path == "-" ? stderr : stdout;
  if (trace) {
    std::fprintf(report, "trace:\n%s\n", result->trace.ToString().c_str());
  }
  std::fprintf(report, "result: %s\n",
               result->database.ToString().c_str());
  if (!result->blocked.empty()) {
    std::fprintf(report, "blocked:");
    for (const std::string& b : result->blocked) {
      std::fprintf(report, " %s", b.c_str());
    }
    std::fprintf(report, "\n");
  }
  if (provenance) {
    std::fprintf(report, "provenance:\n");
    for (const park::AtomProvenance& entry : result->provenance) {
      std::fprintf(report, "  %-24s <-", entry.atom.c_str());
      for (const std::string& g : entry.derived_by) {
        std::fprintf(report, " %s", g.c_str());
      }
      std::fprintf(report, "\n");
    }
  }
  std::fprintf(
      report,
      "stats: %zu step(s), %zu restart(s), %zu conflict(s) resolved\n",
      result->stats.gamma_steps, result->stats.restarts,
      result->stats.conflicts_resolved);
  if (!stats_json_path.empty()) {
    std::string json = result->stats.ToJson();
    json += '\n';
    if (stats_json_path == "-") {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(stats_json_path,
                        std::ios::binary | std::ios::trunc);
      out << json;
      if (!out) {
        std::fprintf(stderr, "cannot write --stats-json file: %s\n",
                     stats_json_path.c_str());
        return 1;
      }
    }
  }
  return 0;
}
