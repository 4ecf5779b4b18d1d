// Incremental maintenance (docs/INCREMENTAL.md), structurally: which
// commits the eligibility gates let through and which fall back, the
// Invalidate() hooks, the cone and re-derivation counters, parallel
// timings of maintained commits, and durable replay. That maintained and
// fallen-back commits both match the reference evaluator, in every
// configuration and through Session group commits, is
// differential_test's job.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "eca/active_database.h"
#include "test_util.h"
#include "util/string_util.h"

namespace park {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

/// One commit of a script: textual "+p(a)" / "-q(b)" updates.
using Script = std::vector<std::vector<std::string>>;

struct CommitObservation {
  bool ok = false;
  std::vector<std::string> inserted;
  std::vector<std::string> deleted;
  ParkStats stats;
};

struct ScriptOutcome {
  std::vector<CommitObservation> commits;
  std::string final_database;
  uint64_t maintained_commits = 0;
  uint64_t fallbacks = 0;
};

struct Config {
  MaintenanceMode maint = MaintenanceMode::kOff;
  int threads = 1;
};

ParkOptions OptionsFor(const Config& config) {
  ParkOptions options;
  options.maintenance_mode = config.maint;
  options.num_threads = config.threads;
  return options;
}

/// Replays `script` commit by commit against a fresh ActiveDatabase.
ScriptOutcome RunScript(const std::string& rules, const std::string& facts,
                        const Script& script, const Config& config) {
  ScriptOutcome outcome;
  ActiveDatabase db;
  EXPECT_TRUE(db.LoadRules(rules).ok());
  if (!facts.empty()) {
    EXPECT_TRUE(db.LoadFacts(facts).ok());
  }
  EXPECT_TRUE(db.Configure(OptionsFor(config)).ok());
  EXPECT_TRUE(db.Stabilize().ok());
  for (const std::vector<std::string>& commit : script) {
    Transaction tx = db.Begin();
    for (const std::string& update : commit) {
      EXPECT_TRUE(tx.Stage(update).ok()) << update;
    }
    auto report = std::move(tx).Commit();
    CommitObservation obs;
    obs.ok = report.ok();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (report.ok()) {
      const SymbolTable& symbols = *db.symbols();
      for (const GroundAtom& atom : report->inserted) {
        obs.inserted.push_back(atom.ToString(symbols));
      }
      for (const GroundAtom& atom : report->deleted) {
        obs.deleted.push_back(atom.ToString(symbols));
      }
      obs.stats = report->stats;
      outcome.maintained_commits += report->stats.maint_commits;
      outcome.fallbacks += report->stats.maint_full_recompute_fallbacks;
    }
    outcome.commits.push_back(std::move(obs));
  }
  outcome.final_database = db.database().ToString();
  return outcome;
}

/// Transitive closure: insert-only heads, purely positive bodies —
/// statically eligible. Base-edge deletes stay eligible too (e is not a
/// head predicate).
constexpr char kClosureRules[] =
    "base: e(X, Y) -> +t(X, Y).\n"
    "step: t(X, Z), e(Z, Y) -> +t(X, Y).\n";

/// Runs `script` with maintenance on and checks that the gates keep every
/// commit on the full evaluator.
void ExpectNeverMaintained(const std::string& rules, const Script& script) {
  Config config;
  config.maint = MaintenanceMode::kIncremental;
  ScriptOutcome run = RunScript(rules, "", script, config);
  EXPECT_EQ(run.maintained_commits, 0u);
  EXPECT_EQ(run.fallbacks, script.size());
}

/// Randomized multi-commit script over a small node domain: mostly edge
/// inserts, some deletes of already-present edges, occasional no-ops.
Script RandomScript(uint32_t seed, size_t commits, size_t updates_per) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, 9);
  std::uniform_int_distribution<int> kind(0, 9);
  std::vector<std::pair<int, int>> present;
  Script script;
  for (size_t c = 0; c < commits; ++c) {
    std::vector<std::string> commit;
    for (size_t u = 0; u < updates_per; ++u) {
      if (kind(rng) < 7 || present.empty()) {
        int from = node(rng);
        int to = node(rng);
        commit.push_back(StrFormat("+e(n%d, n%d)", from, to));
        present.emplace_back(from, to);
      } else {
        std::uniform_int_distribution<size_t> pick(0, present.size() - 1);
        size_t at = pick(rng);
        commit.push_back(
            StrFormat("-e(n%d, n%d)", present[at].first, present[at].second));
        present.erase(present.begin() + static_cast<long>(at));
      }
    }
    script.push_back(std::move(commit));
  }
  return script;
}

TEST(IncrementalOracleTest, GateViolatingCommitsFallBack) {
  // Commit 1 is eligible; commit 2 deletes a derived (head) predicate;
  // commit 3 carries both signs of one atom — a genuine conflict, whose
  // full-path resolution (a restart) means INV is NOT re-established, so
  // commit 4 falls back too and only commit 5 is incremental again.
  Script script = {
      {"+e(n0, n3)"},
      {"-t(n0, n1)"},
      {"+e(n4, n5)", "-e(n4, n5)"},
      {"+e(n3, n4)"},
      {"+e(n5, n6)"},
  };
  Config config;
  config.maint = MaintenanceMode::kIncremental;
  ScriptOutcome run =
      RunScript(kClosureRules, "e(n0, n1). e(n1, n2).", script, config);
  ASSERT_EQ(run.commits.size(), 5u);
  // Commit 1 rides the INV established by Stabilize().
  EXPECT_EQ(run.commits[0].stats.maint_commits, 1u);
  EXPECT_EQ(run.commits[1].stats.maint_full_recompute_fallbacks, 1u);
  EXPECT_EQ(run.commits[2].stats.maint_full_recompute_fallbacks, 1u);
  EXPECT_GT(run.commits[2].stats.restarts, 0u);
  EXPECT_EQ(run.commits[3].stats.maint_full_recompute_fallbacks, 1u);
  EXPECT_EQ(run.commits[4].stats.maint_commits, 1u);
  EXPECT_EQ(run.fallbacks, 3u);
}

TEST(IncrementalOracleTest, StaticallyIneligibleProgramsAlwaysFallBack) {
  // Delete head + negation over a head predicate: the static gate keeps
  // every commit on the full path.
  const std::string rules =
      "onboard: +emp(X) -> +active(X).\n"
      "cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).\n";
  Script script = {
      {"+emp(ann)", "+payroll(ann, s1)"},
      {"+emp(bob)"},
      {"-emp(ann)"},
  };
  ExpectNeverMaintained(rules, script);
}

TEST(IncrementalOracleTest, EventFeedbackOntoHeadPredicateIsGated) {
  // +active(X) is an event literal over a predicate some head writes —
  // statically ineligible (the seeded closure only marks the cone, a
  // from-scratch run marks every derived atom).
  const std::string rules =
      "a: p(X) -> +active(X).\n"
      "b: +active(X) -> +notified(X).\n";
  Script script = {{"+p(ann)"}, {"+p(bob)"}, {"+q(zz)"}};
  ExpectNeverMaintained(rules, script);
}

TEST(IncrementalOracleTest, InsertIntoNegatedPredicateIsMaintained) {
  // `!blocked` reads a non-head predicate, so the program is statically
  // eligible, and an insert into `blocked` needs no gate of its own: the
  // full run's extra first-step firings of `!blocked(n0)` only re-mark
  // stored atoms (docs/INCREMENTAL.md, "Inserts into negated
  // predicates"). Commit 2 also adds an edge the new fact suppresses.
  const std::string rules = "r: e(X, Y), !blocked(X) -> +t(X, Y).\n";
  Script script = {
      {"+e(n0, n1)"},
      {"+blocked(n0)", "+e(n0, n2)"},
      {"+e(n2, n3)"},
  };
  ScriptOutcome off = RunScript(rules, "", script, Config{});
  ScriptOutcome on = RunScript(rules, "", script,
                               Config{MaintenanceMode::kIncremental, 1});
  ASSERT_EQ(on.commits.size(), script.size());
  for (size_t k = 0; k < script.size(); ++k) {
    SCOPED_TRACE(StrFormat("commit %zu", k));
    EXPECT_EQ(on.commits[k].stats.maint_commits, 1u);
    EXPECT_EQ(on.commits[k].inserted, off.commits[k].inserted);
    EXPECT_EQ(on.commits[k].deleted, off.commits[k].deleted);
  }
  EXPECT_EQ(on.commits[1].inserted,
            (std::vector<std::string>{"e(n0, n2)", "blocked(n0)"}));
  EXPECT_EQ(on.fallbacks, 0u);
  EXPECT_EQ(on.final_database, off.final_database);
}

TEST(IncrementalOracleTest, IncrementalCommitReportsConeAndRederivations) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules(kClosureRules).ok());
  ASSERT_TRUE(db.LoadFacts("e(n0, n1). e(n1, n2). e(n2, n3).").ok());
  ParkOptions options;
  options.maintenance_mode = MaintenanceMode::kIncremental;
  ASSERT_TRUE(db.Configure(std::move(options)).ok());
  auto stabilized = db.Stabilize();
  ASSERT_TRUE(stabilized.ok());
  // Stabilize itself is the INV-establishing full run.
  EXPECT_EQ(stabilized->stats.maint_full_recompute_fallbacks, 1u);
  EXPECT_EQ(stabilized->stats.maint_commits, 0u);

  Transaction tx = db.Begin();
  ASSERT_TRUE(tx.Stage("+e(n4, n5)").ok());
  auto incremental = std::move(tx).Commit();
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(incremental->stats.maint_commits, 1u);
  EXPECT_EQ(incremental->stats.maint_full_recompute_fallbacks, 0u);
  // The insert reaches both rules' cone and re-derives t(_, n5) paths.
  EXPECT_EQ(incremental->stats.maint_cone_rules, 2u);
  EXPECT_GT(incremental->stats.maint_atoms_rederived, 0u);
  EXPECT_EQ(incremental->stats.maint_atoms_overdeleted, 0u);
  EXPECT_EQ(incremental->stats.maintenance_mode,
            MaintenanceMode::kIncremental);
  // A base-edge delete is eligible and, by inertia, retracts nothing else.
  Transaction del = db.Begin();
  ASSERT_TRUE(del.Stage("-e(n4, n5)").ok());
  auto deleted = std::move(del).Commit();
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(deleted->stats.maint_commits, 1u);
  EXPECT_EQ(deleted->stats.maint_atoms_overdeleted, 1u);
}

TEST(IncrementalOracleTest, MaintainedCommitsReportParallelTimings) {
  // Each maintained commit follows the collect_timings it was configured
  // with and reports its own share of the pool's clocks. Configure()
  // drops the warm state and INV, so a Stabilize() re-establishes INV
  // (and rebuilds the pool) before each maintained commit.
  std::string facts;
  for (int i = 0; i < 200; ++i) facts += StrFormat("e(n%d, n%d). ", i, i + 1);
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules(kClosureRules).ok());
  ASSERT_TRUE(db.LoadFacts(facts).ok());
  ParkOptions options;
  options.maintenance_mode = MaintenanceMode::kIncremental;
  options.num_threads = 4;
  ASSERT_TRUE(db.Configure(options).ok());
  ASSERT_TRUE(db.Stabilize().ok());
  int node = 200;
  auto commit = [&](bool timed) {
    ParkOptions o = options;
    o.collect_timings = timed;
    EXPECT_TRUE(db.Configure(o).ok());
    EXPECT_TRUE(db.Stabilize().ok());
    Transaction tx = db.Begin();
    EXPECT_TRUE(
        tx.Stage(StrFormat("+e(n%d, n%d)", node, node + 1)).ok());
    ++node;
    auto report = std::move(tx).Commit();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->stats.maint_commits, 1u);
    EXPECT_GT(report->stats.parallel_sections, 0u);
    return report->stats.timings;
  };
  for (bool timed : {true, false, true, false}) {
    SCOPED_TRACE(timed ? "timings on" : "timings off");
    const PhaseTimings t = commit(timed);
    EXPECT_EQ(t.collected, timed);
    if (timed) {
      EXPECT_GT(t.parallel_match_ns, 0u);
      EXPECT_GT(t.pool_busy_ns, 0u);
    } else {
      EXPECT_EQ(t.parallel_match_ns, 0u);
      EXPECT_EQ(t.parallel_merge_ns, 0u);
      EXPECT_EQ(t.pool_busy_ns, 0u);
    }
  }
}

TEST(IncrementalOracleTest, MaintainedCommitsMarkAThirdOfTheWork) {
  // Maintenance's speed claim, as work instead of time: small commits
  // into a large fixpoint. The seeded closure marks only the commit's
  // cone; a from-scratch Δ loop re-marks every derived atom.
  struct Case {
    std::string rules;
    std::string facts;
    Script script;
  };
  // Kilorule: three chains of twelve copy rules plus the cq/cs cycle,
  // each commit seeding one chain.
  Case kilorule;
  for (int chain = 0; chain < 3; ++chain) {
    for (int level = 0; level < 12; ++level) {
      kilorule.rules += StrFormat("r%d_%d: p%d_%d(X) -> +p%d_%d(X).\n",
                                  chain, level, chain, level, chain,
                                  level + 1);
    }
    kilorule.facts += StrFormat("p%d_0(seed0). ", chain);
  }
  kilorule.rules += "scc_q: cq(X) -> +cs(X).\nscc_s: cs(X) -> +cq(X).\n";
  // Closure over the path v0 -> ... -> v11, each commit grafting a fresh
  // node onto v8.
  Case closure{kClosureRules, "", {}};
  for (int i = 0; i + 1 < 12; ++i) {
    closure.facts += StrFormat("e(v%d, v%d). ", i, i + 1);
  }
  for (int i = 0; i < 6; ++i) {
    kilorule.script.push_back({StrFormat("+p%d_0(f%d)", i % 3, i)});
    closure.script.push_back({StrFormat("+e(f%d, v8)", i)});
  }

  for (const Case& c : {kilorule, closure}) {
    ScriptOutcome off = RunScript(c.rules, c.facts, c.script, Config{});
    ScriptOutcome on = RunScript(c.rules, c.facts, c.script,
                                 Config{MaintenanceMode::kIncremental, 1});
    ASSERT_EQ(on.commits.size(), off.commits.size());
    size_t marks_off = 0;
    size_t marks_on = 0;
    for (size_t k = 0; k < on.commits.size(); ++k) {
      EXPECT_EQ(on.commits[k].inserted, off.commits[k].inserted);
      EXPECT_EQ(on.commits[k].deleted, off.commits[k].deleted);
      marks_off += off.commits[k].stats.derived_marks;
      marks_on += on.commits[k].stats.derived_marks;
    }
    EXPECT_EQ(on.final_database, off.final_database);
    EXPECT_EQ(on.maintained_commits, c.script.size());
    EXPECT_EQ(on.fallbacks, 0u);
    EXPECT_GE(marks_off, 3 * marks_on)
        << marks_off << " marks from scratch, " << marks_on << " maintained";
  }
}

TEST(IncrementalOracleTest, BulkLoadsInvalidateTheMaintainedState) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules(kClosureRules).ok());
  ParkOptions options;
  options.maintenance_mode = MaintenanceMode::kIncremental;
  ASSERT_TRUE(db.Configure(std::move(options)).ok());
  ASSERT_TRUE(db.LoadFacts("e(n0, n1).").ok());
  ASSERT_TRUE(db.Stabilize().ok());
  ASSERT_TRUE(std::move(db.Begin().Insert("e", {"n1", "n2"})).Commit().ok());

  // LoadFacts bypasses the rules, so INV is gone: the next commit must
  // fall back (and, through it, repair the un-stabilized bulk load).
  ASSERT_TRUE(db.LoadFacts("e(n2, n3).").ok());
  auto after_bulk = std::move(db.Begin().Insert("e", {"n3", "n4"})).Commit();
  ASSERT_TRUE(after_bulk.ok());
  EXPECT_EQ(after_bulk->stats.maint_commits, 0u);
  EXPECT_EQ(after_bulk->stats.maint_full_recompute_fallbacks, 1u);
  // The closure reached through the bulk-loaded edge.
  auto rows = QueryDatabase(db.database(), "t(n0, n4)", db.symbols());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  // And the commit after that is incremental again.
  auto next = std::move(db.Begin().Insert("e", {"n4", "n5"})).Commit();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->stats.maint_commits, 1u);
}

TEST(IncrementalOracleTest, AddingARuleInvalidates) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("base: e(X, Y) -> +t(X, Y).").ok());
  ParkOptions options;
  options.maintenance_mode = MaintenanceMode::kIncremental;
  ASSERT_TRUE(db.Configure(std::move(options)).ok());
  ASSERT_TRUE(db.Stabilize().ok());
  ASSERT_TRUE(std::move(db.Begin().Insert("e", {"a", "b"})).Commit().ok());
  ASSERT_TRUE(db.LoadRules("step: t(X, Z), e(Z, Y) -> +t(X, Y).").ok());
  auto report = std::move(db.Begin().Insert("e", {"b", "c"})).Commit();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stats.maint_commits, 0u);
  EXPECT_EQ(report->stats.maint_full_recompute_fallbacks, 1u);
  auto rows = QueryDatabase(db.database(), "t(a, c)", db.symbols());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(IncrementalOracleTest, FullCommitsReuseTheWarmPlanCache) {
  // Maintenance off, so every commit is the unseeded run of P_U. It runs
  // over the state the database keeps bound to P: once the first commit
  // has compiled the payroll rules' plans, later commits compile none
  // (the update rules of P_U take the empty plan) and find every plan in
  // the cache, whose statistics stay close enough not to drift.
  const std::string rules =
      "cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).\n"
      "cascade: -payroll(X, S) -> +audit(X).\n"
      "onboard: +emp(X) -> +active(X).\n";
  std::string facts;
  for (int i = 0; i < 64; ++i) {
    facts += StrFormat("emp(e%d). active(e%d). payroll(e%d, %d). ", i, i, i,
                       1000 + i);
  }
  // The first commit onboards and deactivates; the rest alternate.
  Script script = {{"+emp(n0)", "-active(e0)"}};
  for (int k = 1; k <= 6; ++k) {
    script.push_back({k % 2 == 1 ? StrFormat("+emp(n%d)", k)
                                 : StrFormat("-active(e%d)", k)});
  }
  ScriptOutcome run = RunScript(rules, facts, script, Config{});
  ASSERT_EQ(run.commits.size(), script.size());
  EXPECT_GT(run.commits[0].stats.plans_compiled, 0u);
  for (size_t k = 1; k < run.commits.size(); ++k) {
    SCOPED_TRACE(StrFormat("commit %zu", k + 1));
    const ParkStats& stats = run.commits[k].stats;
    EXPECT_EQ(stats.plans_compiled, 0u);
    EXPECT_EQ(stats.plan_replans, 0u);
    EXPECT_GT(stats.plan_cache_hits, 0u);
  }
  // The deactivations cascaded as they do on a cold cache.
  EXPECT_EQ(run.commits[2].deleted,
            (std::vector<std::string>{"active(e2)", "payroll(e2, 1002)"}));
  EXPECT_EQ(run.commits[2].inserted, (std::vector<std::string>{"audit(e2)"}));
}

TEST(IncrementalOracleTest, OpenedDatabaseKeepsTheInvariantOfItsReplay) {
  // Journal replay runs through the commit path and establishes INV; the
  // database Open returns (moved out of the replaying one) keeps it, so
  // its first eligible commit is maintained.
  const std::string dir = TempDir("park_incremental_reopen");
  ActiveDatabase::OpenParams params;
  params.rules = kClosureRules;
  params.options.maintenance_mode = MaintenanceMode::kIncremental;
  {
    auto db = ActiveDatabase::Open(dir, params);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (const char* edge : {"+e(n0, n1)", "+e(n1, n2)"}) {
      Transaction tx = db->Begin();
      ASSERT_TRUE(tx.Stage(edge).ok());
      ASSERT_TRUE(std::move(tx).Commit().ok());
    }
  }
  auto reopened = ActiveDatabase::Open(dir, params);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Transaction tx = reopened->Begin();
  ASSERT_TRUE(tx.Stage("+e(n2, n3)").ok());
  auto report = std::move(tx).Commit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stats.maint_commits, 1u);
  EXPECT_EQ(report->stats.maint_full_recompute_fallbacks, 0u);
  auto rows = QueryDatabase(reopened->database(), "t(n0, n3)",
                            reopened->symbols());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(IncrementalOracleTest, DurableReplayMatchesMaintenanceOff) {
  Script script = RandomScript(11u, /*commits=*/6, /*updates_per=*/2);
  std::string states[2];
  for (int pass = 0; pass < 2; ++pass) {
    const bool maintained = pass == 1;
    const std::string dir = TempDir(
        StrFormat("park_incremental_durable_%d", pass));
    ActiveDatabase::OpenParams params;
    params.rules = kClosureRules;
    params.options.maintenance_mode = maintained
                                          ? MaintenanceMode::kIncremental
                                          : MaintenanceMode::kOff;
    std::string before;
    {
      auto db = ActiveDatabase::Open(dir, params);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      for (const std::vector<std::string>& commit : script) {
        Transaction tx = db->Begin();
        for (const std::string& update : commit) {
          ASSERT_TRUE(tx.Stage(update).ok());
        }
        ASSERT_TRUE(std::move(tx).Commit().ok());
      }
      before = db->database().ToString();
    }
    // Reopen: journal replay runs through the same commit path, with
    // maintenance engaging after the first replayed commit.
    auto reopened = ActiveDatabase::Open(dir, params);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened->database().ToString(), before);
    states[pass] = reopened->database().ToString();
  }
  EXPECT_EQ(states[0], states[1]);
}

}  // namespace
}  // namespace park
