// Differential test of the engine against ReferencePark, the
// definition-level evaluator in tests/reference/.
//
// Every case (a program, facts, a sequence of update sets U_1..U_n and a
// SELECT policy) runs through every production configuration — threads
// {1, 4} × block granularity — and every driver:
// Park(), a stepped ParkStepper, ActiveDatabase commit scripts with
// maintenance off and on, and a Session whose concurrent group commits
// are replayed from the journal through the reference.
//
//  - Layer 1: each evaluation matches the reference on the result
//    database, the rendered blocked set, `restarts` and `gamma_steps`
//    (and, for Park(), the provenance; for every commit, the reported
//    inserted/deleted lists, entry for entry).
//  - Layer 2: each configuration matches the default one (1 thread, same
//    granularity) on the trace (Park(), the stepper,
//    and each commit with maintenance off), the provenance, and the
//    park-stats-v1 counters/planner/scheduler blocks (plus the
//    maintenance block for commit scripts).
//  - Theorem 4.1 on every case, for the engine and the reference: the run
//    terminates, the result is consistent, B grows strictly at each
//    restart, and restarts ≤ the number of ground instances of P_U.
//  - The conflict lemma (DESIGN.md §2), on every stepped resolution: the
//    triples the stepper builds from the step's semi-naive section equal
//    those BuildConflicts builds from a full Γ over the same ⟨B, I⟩.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include <unistd.h>

#include "core/stepper.h"
#include "eca/journal.h"
#include "lang/printer.h"
#include "reference/reference_park.h"
#include "serve/session.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/conflict_gen.h"
#include "workload/graph_gen.h"
#include "workload/kilorule_gen.h"
#include "workload/payroll_gen.h"

namespace park {
namespace {

using reference::ReferencePark;
using reference::ReferenceRun;
using Atoms = std::set<GroundAtom>;

// --- cases ---

enum class PolicyKind {
  kInertia,
  kAlwaysInsert,
  kAlwaysDelete,
  kPriorityOverInertia,
  kSpecificityOverInertia,
  kIrreflexiveGraph,
};

PolicyPtr MakePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kInertia: return MakeInertiaPolicy();
    case PolicyKind::kAlwaysInsert: return MakeAlwaysInsertPolicy();
    case PolicyKind::kAlwaysDelete: return MakeAlwaysDeletePolicy();
    case PolicyKind::kPriorityOverInertia:
      return MakeCompositePolicy(
          {MakeRulePriorityPolicy(), MakeInertiaPolicy()});
    case PolicyKind::kSpecificityOverInertia:
      return MakeCompositePolicy(
          {MakeSpecificityPolicy(), MakeInertiaPolicy()});
    case PolicyKind::kIrreflexiveGraph: return MakeIrreflexiveGraphPolicy();
  }
  return nullptr;
}

/// One case, all text. The single-run drivers evaluate PARK(D, P, U_1);
/// the commit scripts stabilize D and then commit U_1..U_n in order.
struct Case {
  std::string rules;
  std::string facts;
  std::vector<std::vector<std::string>> commits;
  PolicyKind policy = PolicyKind::kInertia;
};

std::string RenderFacts(const Database& db) {
  std::string facts;
  for (const std::string& atom : db.SortedAtomStrings()) facts += atom + ". ";
  return facts;
}

/// A generator workload as a case: its updates become U_1, followed by
/// `more` commits.
Case FromWorkload(const Workload& w, PolicyKind policy,
                  std::vector<std::vector<std::string>> more = {}) {
  Case c;
  c.rules = ProgramToString(w.program);
  c.facts = RenderFacts(w.database);
  std::vector<std::string> first;
  for (const Update& u : w.updates.updates()) {
    first.push_back(ActionKindSign(u.action) + u.atom.ToString(*w.symbols));
  }
  c.commits.push_back(std::move(first));
  for (auto& commit : more) c.commits.push_back(std::move(commit));
  c.policy = policy;
  return c;
}

/// A case parsed into one symbol table, in the order every driver repeats
/// (rules, facts, then each commit's updates): symbol ids — hence atom
/// order, and with it the first conflict under kFirstConflictOnly — are
/// the same for the engine and the reference.
struct Parsed {
  std::shared_ptr<SymbolTable> symbols = MakeSymbolTable();
  Program program{symbols};
  Database db{symbols};
  std::vector<std::vector<Update>> commits;
};

std::unique_ptr<Parsed> Parse(const Case& c) {
  auto parsed = std::make_unique<Parsed>();
  parsed->program = testing_util::MustParseProgram(c.rules, parsed->symbols);
  parsed->db = testing_util::MustParseDatabase(c.facts, parsed->symbols);
  for (const std::vector<std::string>& commit : c.commits) {
    UpdateSet set;
    for (const std::string& text : commit) {
      EXPECT_TRUE(set.AddParsed(text, parsed->symbols).ok()) << text;
    }
    parsed->commits.push_back(set.updates());
  }
  return parsed;
}

const std::vector<Update>& FirstCommit(const Parsed& parsed) {
  static const std::vector<Update> kNone;
  return parsed.commits.empty() ? kNone : parsed.commits.front();
}

// --- configurations ---

struct Config {
  int threads = 1;
  BlockGranularity granularity = BlockGranularity::kAllConflicts;
};

/// Every production configuration, grouped by granularity; the first of
/// each group is that group's default (the Layer 2 baseline).
std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (BlockGranularity g : {BlockGranularity::kAllConflicts,
                             BlockGranularity::kFirstConflictOnly}) {
    for (int threads : {1, 4}) configs.push_back({threads, g});
  }
  return configs;
}

std::string ConfigName(const Config& c) {
  return StrFormat(
      "threads=%d granularity=%s", c.threads,
      c.granularity == BlockGranularity::kAllConflicts ? "all" : "first");
}

ParkOptions OptionsFor(const Config& c, PolicyKind policy) {
  ParkOptions options;
  options.policy = MakePolicy(policy);
  options.num_threads = c.threads;
  options.block_granularity = c.granularity;
  return options;
}

// --- observations ---

template <typename AtomRange>
std::vector<std::string> Render(const AtomRange& atoms, const SymbolTable& s) {
  std::vector<std::string> out;
  for (const GroundAtom& atom : atoms) out.push_back(atom.ToString(s));
  std::sort(out.begin(), out.end());
  return out;
}

Atoms AtomsOf(const Database& db) {
  Atoms atoms;
  db.ForEach([&](const GroundAtom& atom) { atoms.insert(atom); });
  return atoms;
}

Database ToDatabase(const Atoms& atoms,
                    const std::shared_ptr<SymbolTable>& symbols) {
  Database db(symbols);
  for (const GroundAtom& atom : atoms) db.Insert(atom);
  return db;
}

/// The object `"key": {...}` of a park-stats-v1 document, verbatim; a
/// missing or unterminated block fails the test.
std::string JsonBlock(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\": {");
  if (at == std::string::npos) {
    ADD_FAILURE() << "park-stats-v1 document has no \"" << key << "\" block";
    return "";
  }
  int depth = 0;
  for (size_t i = json.find('{', at); i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) return json.substr(at, i + 1 - at);
  }
  ADD_FAILURE() << "park-stats-v1 block \"" << key << "\" is unterminated";
  return "";
}

/// The blocks every configuration must agree on.
std::string DeterministicBlocks(const ParkStats& stats, bool maintenance) {
  const std::string json = stats.ToJson();
  std::string out = JsonBlock(json, "counters") + JsonBlock(json, "planner") +
                    JsonBlock(json, "scheduler");
  if (maintenance) out += JsonBlock(json, "maintenance");
  return out;
}

/// One engine evaluation as a driver sees it. Fields a driver cannot see
/// stay empty and are not compared.
struct Observation {
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> database;
  std::optional<std::vector<std::string>> blocked;
  size_t blocked_instances = 0;
  size_t restarts = 0;
  size_t gamma_steps = 0;
  std::optional<std::vector<std::string>> provenance;
  /// The commit diff as reported (CommitReport), entries and order
  /// verbatim.
  std::optional<std::vector<GroundAtom>> inserted;
  std::optional<std::vector<GroundAtom>> deleted;
  std::string trace;
  std::string blocks;
  ParkStats stats;
  /// Served by the incremental maintainer: its counters describe the
  /// seeded closure, not the full Δ loop the reference runs.
  bool maintained = false;
  /// Stepped runs: resolution steps past the first step of their round,
  /// whose conflicts come from a semi-naive section.
  size_t seeded_resolutions = 0;
};

/// One reference evaluation, or its error, with the diff it makes to D:
/// incorp(I) \ D and D \ incorp(I), in GroundAtom order.
struct Expected {
  StatusCode code = StatusCode::kOk;
  ReferenceRun run;
  std::vector<GroundAtom> inserted;
  std::vector<GroundAtom> deleted;
};

Expected Reference(const Database& db, const Program& program,
                   const std::vector<Update>& updates, PolicyKind policy,
                   BlockGranularity granularity) {
  auto run = ReferencePark(db, program, updates, MakePolicy(policy),
                           granularity);
  if (!run.ok()) return Expected{run.status().code(), {}, {}, {}};
  Expected e{StatusCode::kOk, std::move(run).value(), {}, {}};
  const Atoms before = AtomsOf(db);
  std::set_difference(e.run.database.begin(), e.run.database.end(),
                      before.begin(), before.end(),
                      std::back_inserter(e.inserted));
  std::set_difference(before.begin(), before.end(), e.run.database.begin(),
                      e.run.database.end(), std::back_inserter(e.deleted));
  return e;
}

/// Theorem 4.1 on a reference run.
void ExpectTheorem41(const ReferenceRun& run) {
  EXPECT_TRUE(run.consistent);
  EXPECT_EQ(run.blocked_sizes.size(), run.restarts);
  for (size_t i = 1; i < run.blocked_sizes.size(); ++i) {
    EXPECT_LT(run.blocked_sizes[i - 1], run.blocked_sizes[i]);
  }
  EXPECT_LE(run.restarts, run.ground_instances);
}

/// Layer 1.
void ExpectMatchesReference(const Observation& got, const Expected& want,
                            const SymbolTable& symbols) {
  ASSERT_EQ(got.code, want.code);
  if (want.code != StatusCode::kOk) return;
  EXPECT_EQ(got.database, Render(want.run.database, symbols));
  // Exactly the atoms that changed: no insert of an atom already in D, no
  // delete of an absent one, no duplicates. The rendered comparison is the
  // readable one; the raw one also holds the engine to GroundAtom order.
  if (got.inserted) {
    EXPECT_EQ(Render(*got.inserted, symbols), Render(want.inserted, symbols));
    EXPECT_EQ(*got.inserted, want.inserted);
  }
  if (got.deleted) {
    EXPECT_EQ(Render(*got.deleted, symbols), Render(want.deleted, symbols));
    EXPECT_EQ(*got.deleted, want.deleted);
  }
  if (got.maintained) {
    // The seeded closure aborts on any clash, so a maintained commit is
    // one the reference resolves without conflicts.
    EXPECT_EQ(want.run.restarts, 0u);
    EXPECT_TRUE(want.run.blocked.empty());
    return;
  }
  if (got.blocked) {
    EXPECT_EQ(*got.blocked, want.run.blocked);
  }
  EXPECT_EQ(got.blocked_instances, want.run.blocked.size());
  EXPECT_EQ(got.restarts, want.run.restarts);
  EXPECT_EQ(got.gamma_steps, want.run.gamma_steps);
  if (got.provenance) {
    EXPECT_EQ(*got.provenance, want.run.provenance);
  }
}

/// Layer 2: `base` is the default configuration's observation.
void ExpectMatchesDefault(const Observation& got, const Observation& base) {
  EXPECT_EQ(got.trace, base.trace);
  EXPECT_EQ(got.provenance, base.provenance);
  EXPECT_EQ(got.blocks, base.blocks);
}

void FillFromStats(const ParkStats& stats, Observation& obs) {
  obs.stats = stats;
  obs.blocked_instances = stats.blocked_instances;
  obs.restarts = stats.restarts;
  obs.gamma_steps = stats.gamma_steps;
  obs.blocks = DeterministicBlocks(stats, /*maintenance=*/false);
}

// --- drivers ---

void Stage(Transaction& tx, const Update& u) {
  if (u.action == ActionKind::kInsert) {
    tx.Insert(u.atom);
  } else {
    tx.Delete(u.atom);
  }
}

Observation RunPark(const Parsed& parsed, ParkOptions options) {
  options.trace_level = TraceLevel::kFull;
  options.record_provenance = true;
  auto result = Park(parsed.db, parsed.program, FirstCommit(parsed), options);
  Observation obs;
  if (!result.ok()) {
    obs.code = result.status().code();
    return obs;
  }
  obs.database = result->database.SortedAtomStrings();
  obs.blocked = result->blocked;
  FillFromStats(result->stats, obs);
  std::vector<std::string> provenance;
  for (const AtomProvenance& p : result->provenance) {
    provenance.push_back(p.atom + " <- " + Join(p.derived_by, ", "));
  }
  obs.provenance = std::move(provenance);
  obs.trace = result->trace.ToString();
  return obs;
}

/// The conflicts the stepper must resolve from ⟨B, I⟩, built from a
/// sequential full Γ rather than the stepper's semi-naive section; empty
/// when that Γ is consistent. Under kFirstConflictOnly, the first triple.
std::vector<Conflict> FullGammaConflicts(const Program& program,
                                         const ParkStepper& stepper,
                                         PlanCache& plans,
                                         BlockGranularity granularity) {
  GammaResult full = ComputeGamma(program, stepper.blocked(),
                                  stepper.interpretation(), plans);
  if (full.consistent) return {};
  std::vector<Conflict> conflicts =
      BuildConflicts(std::move(full), stepper.interpretation());
  if (granularity == BlockGranularity::kFirstConflictOnly) {
    conflicts.resize(1);
  }
  return conflicts;
}

/// The stepper, one Δ transition at a time, asserting Theorem 4.1 along
/// the way: ⟨B, I⟩ grows in the bi-structure order, B grows strictly at
/// each restart, the run reaches a fixpoint, and I there is consistent.
/// Every resolution step's conflicts, built from the step's own section,
/// must equal those of a full Γ over the same ⟨B, I⟩ (DESIGN.md §2).
Observation RunStepped(const Parsed& parsed, ParkOptions options,
                       size_t ground_instances) {
  options.trace_level = TraceLevel::kFull;
  auto extended = ProgramWithUpdates(parsed.program, FirstCommit(parsed));
  EXPECT_TRUE(extended.ok()) << extended.status().ToString();
  Observation obs;
  if (!extended.ok()) return obs;
  ParkStepper stepper(*extended, parsed.db, options);
  PlanCache full_gamma_plans(*extended);
  BiStructureSnapshot before = stepper.Snapshot();
  size_t round_steps = 0;  // steps taken since the round began
  // Any terminating run takes fewer transitions than this.
  const size_t kTransitionBound = 1'000'000;
  size_t transitions = 0;
  while (!stepper.done() && transitions++ < kTransitionBound) {
    const size_t blocked_before = stepper.blocked().size();
    const std::vector<Conflict> full_conflicts = FullGammaConflicts(
        *extended, stepper, full_gamma_plans, options.block_granularity);
    auto outcome = stepper.Step();
    if (!outcome.ok()) {
      obs.code = outcome.status().code();
      return obs;
    }
    BiStructureSnapshot after = stepper.Snapshot();
    EXPECT_EQ(outcome->kind == StepOutcome::Kind::kResolution,
              !full_conflicts.empty());
    if (outcome->kind == StepOutcome::Kind::kResolution) {
      EXPECT_EQ(outcome->conflicts, full_conflicts);
      if (round_steps > 0) ++obs.seeded_resolutions;
      round_steps = 0;
      EXPECT_GT(stepper.blocked().size(), blocked_before);
      EXPECT_EQ(outcome->newly_blocked,
                stepper.blocked().size() - blocked_before);
    } else {
      ++round_steps;
    }
    EXPECT_TRUE(BiStructureLeq(before, after))
        << before.ToString() << " then " << after.ToString();
    before = std::move(after);
  }
  EXPECT_TRUE(stepper.done()) << "no fixpoint within the transition bound";
  EXPECT_TRUE(stepper.interpretation().IsConsistent());
  EXPECT_LE(stepper.stats().restarts, ground_instances);
  auto database = stepper.Finish();
  EXPECT_TRUE(database.ok());
  if (!database.ok()) return obs;
  obs.database = database->SortedAtomStrings();
  obs.blocked = RenderSortedGroundings(stepper.blocked(), *extended);
  FillFromStats(stepper.stats(), obs);
  obs.trace = stepper.trace().ToString();
  return obs;
}

/// Stabilize, then commit U_1..U_n, on a fresh ActiveDatabase: one
/// observation per commit. With maintenance off every commit records its
/// trace at kFull (the options gate would keep a traced commit off the
/// maintained path).
std::vector<Observation> RunScript(const Case& c, const Parsed& parsed,
                                   ParkOptions options) {
  if (options.maintenance_mode == MaintenanceMode::kOff) {
    options.trace_level = TraceLevel::kFull;
  }
  ActiveDatabase db(parsed.symbols);
  EXPECT_TRUE(db.LoadRules(c.rules).ok());
  EXPECT_TRUE(db.LoadFacts(c.facts).ok());
  EXPECT_TRUE(db.Configure(std::move(options)).ok());
  std::vector<Observation> observations;
  auto observe = [&](CommitResult report) {
    Observation obs;
    if (report.ok()) {
      FillFromStats(report->stats, obs);
      obs.blocks = DeterministicBlocks(report->stats, /*maintenance=*/true);
      obs.maintained = report->stats.maint_commits == 1;
      obs.inserted = report->inserted;
      obs.deleted = report->deleted;
      obs.trace = report->trace.ToString();
    } else {
      obs.code = report.status().code();
    }
    obs.database = db.database().SortedAtomStrings();
    observations.push_back(std::move(obs));
  };
  observe(db.Stabilize());
  for (const std::vector<Update>& commit : parsed.commits) {
    Transaction tx = db.Begin();
    for (const Update& u : commit) Stage(tx, u);
    observe(std::move(tx).Commit());
  }
  return observations;
}

/// The reference side of a commit script: D_0 = facts, then
/// D_{k+1} = PARK(D_k, P, U_k) with U_0 = ∅; a failed commit leaves D.
std::vector<Expected> ReferenceScript(const Parsed& parsed, PolicyKind policy,
                                      BlockGranularity granularity) {
  std::vector<Expected> out;
  Atoms state = AtomsOf(parsed.db);
  auto commit = [&](const std::vector<Update>& updates) {
    Database db = ToDatabase(state, parsed.symbols);
    Expected e = Reference(db, parsed.program, updates, policy, granularity);
    if (e.code == StatusCode::kOk) {
      ExpectTheorem41(e.run);
      state = e.run.database;
    }
    out.push_back(std::move(e));
  };
  commit({});
  for (const std::vector<Update>& updates : parsed.commits) commit(updates);
  return out;
}

/// A durable Session: U_1..U_n are committed from three writer threads,
/// so the pipeline folds concurrent ones into group commits. The journal
/// records, replayed one by one through the reference from the loaded
/// facts, must reproduce the served state.
void RunSessionAndReplay(const Case& c, const Parsed& parsed,
                           ParkOptions options, const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const PolicyKind policy = c.policy;
  const BlockGranularity granularity = options.block_granularity;
  std::string served;
  {
    Session::Params params;
    params.rules = c.rules;
    params.symbols = parsed.symbols;
    params.sync_mode = JournalSyncMode::kNone;
    params.options = std::move(options);
    auto session_or = Session::Open(dir, std::move(params));
    EXPECT_TRUE(session_or.ok()) << session_or.status().ToString();
    if (!session_or.ok()) return;
    std::unique_ptr<Session> session = std::move(session_or).value();
    EXPECT_TRUE(session->LoadFacts(c.facts).ok());
    EXPECT_TRUE(session->Stabilize().ok());
    constexpr size_t kWriters = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (size_t i = w; i < parsed.commits.size(); i += kWriters) {
          Transaction tx = session->Begin();
          for (const Update& u : parsed.commits[i]) Stage(tx, u);
          if (!std::move(tx).Commit().ok()) ++failures;
        }
      });
    }
    for (std::thread& t : writers) t.join();
    EXPECT_EQ(failures.load(), 0);
    served = session->Snapshot().ToString();
  }
  auto records =
      TransactionJournal::ReadRecords(dir + "/journal.log", parsed.symbols);
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  if (!records.ok()) return;
  Atoms state = AtomsOf(parsed.db);
  for (const JournalRecord& record : *records) {
    Database db = ToDatabase(state, parsed.symbols);
    Expected e = Reference(db, parsed.program, record.updates.updates(),
                           policy, granularity);
    EXPECT_EQ(e.code, StatusCode::kOk) << "record " << record.seq;
    if (e.code != StatusCode::kOk) return;
    ExpectTheorem41(e.run);
    state = e.run.database;
  }
  EXPECT_EQ(served, ToDatabase(state, parsed.symbols).ToString());
  std::filesystem::remove_all(dir, ec);
}

/// What a sweep exercised, so the cases can be held to covering
/// conflicts, a result that depends on the block granularity, maintained
/// commits, non-empty diffs, and the machinery each configuration selects
/// (tallied from Park()'s stats).
struct Coverage {
  size_t cases = 0;
  size_t restarts = 0;
  size_t seeded_resolutions = 0;
  size_t granularity_splits = 0;
  size_t maintained_commits = 0;
  size_t inserted = 0;  // atoms in commit reports' inserted lists
  size_t deleted = 0;   // ... and deleted lists
  size_t plans_compiled = 0;
  size_t planner_actual_rows = 0;
  size_t parallel_tasks = 0;  // threads 4

  void Tally(const Config& config, const ParkStats& stats) {
    plans_compiled += stats.plans_compiled;
    planner_actual_rows += stats.planner_actual_rows;
    if (config.threads > 1) parallel_tasks += stats.parallel_tasks;
  }
};

/// The configurations really ran what they select: the planner and the
/// 4-thread fan-out.
void ExpectMachineryRan(const Coverage& coverage) {
  EXPECT_GT(coverage.plans_compiled, 0u);
  EXPECT_GT(coverage.planner_actual_rows, 0u);
  EXPECT_GT(coverage.parallel_tasks, 0u);
}

/// Runs `c` through every configuration and driver, adding to `coverage`.
void CheckCase(const Case& c, Coverage& coverage) {
  std::unique_ptr<Parsed> parsed = Parse(c);
  if (::testing::Test::HasFailure()) return;
  const SymbolTable& symbols = *parsed->symbols;
  ++coverage.cases;

  // The reference, once per granularity.
  std::map<BlockGranularity, Expected> single;
  std::map<BlockGranularity, std::vector<Expected>> script;
  for (BlockGranularity g : {BlockGranularity::kAllConflicts,
                             BlockGranularity::kFirstConflictOnly}) {
    single[g] = Reference(parsed->db, parsed->program, FirstCommit(*parsed),
                          c.policy, g);
    if (single[g].code == StatusCode::kOk) {
      ExpectTheorem41(single[g].run);
      coverage.restarts += single[g].run.restarts;
    }
    script[g] = ReferenceScript(*parsed, c.policy, g);
  }
  const Expected& all = single[BlockGranularity::kAllConflicts];
  const Expected& first = single[BlockGranularity::kFirstConflictOnly];
  if (all.code == StatusCode::kOk && first.code == StatusCode::kOk &&
      all.run.database != first.run.database) {
    ++coverage.granularity_splits;
  }

  // Layer 2 baselines: the default (single-thread) configuration's
  // observations, per granularity.
  struct Baseline {
    Observation park, stepped;
    std::vector<Observation> scripts[2];  // maintenance off, on
  };
  std::map<BlockGranularity, Baseline> baselines;
  // Per process, so concurrent runs of this binary cannot share it.
  const std::string session_dir = ::testing::TempDir() +
                                  "park_differential_session_" +
                                  std::to_string(getpid());
  for (const Config& config : AllConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    const Expected& want = single[config.granularity];
    const ParkOptions options = OptionsFor(config, c.policy);
    const size_t ground_instances =
        want.code == StatusCode::kOk ? want.run.ground_instances : 0;

    Observation park = RunPark(*parsed, options);
    Observation stepped = RunStepped(*parsed, options, ground_instances);
    coverage.Tally(config, park.stats);
    coverage.seeded_resolutions += stepped.seeded_resolutions;
    {
      SCOPED_TRACE("Park()");
      ExpectMatchesReference(park, want, symbols);
    }
    {
      SCOPED_TRACE("ParkStepper");
      ExpectMatchesReference(stepped, want, symbols);
    }

    std::vector<Observation> scripts[2];
    for (MaintenanceMode maintenance :
         {MaintenanceMode::kOff, MaintenanceMode::kIncremental}) {
      const bool on = maintenance == MaintenanceMode::kIncremental;
      SCOPED_TRACE(on ? "ActiveDatabase, maintenance on"
                      : "ActiveDatabase, maintenance off");
      ParkOptions script_options = options;
      script_options.maintenance_mode = maintenance;
      std::vector<Observation>& observed = scripts[on];
      observed = RunScript(c, *parsed, script_options);
      const std::vector<Expected>& expected = script[config.granularity];
      ASSERT_EQ(observed.size(), expected.size());
      for (size_t k = 0; k < observed.size(); ++k) {
        SCOPED_TRACE(StrFormat("commit %zu", k));
        ExpectMatchesReference(observed[k], expected[k], symbols);
        if (observed[k].inserted) {
          coverage.inserted += observed[k].inserted->size();
          coverage.deleted += observed[k].deleted->size();
        }
        if (on) {
          coverage.maintained_commits += observed[k].maintained;
        } else {
          EXPECT_FALSE(observed[k].maintained);
        }
      }

      SCOPED_TRACE("Session");
      RunSessionAndReplay(c, *parsed, script_options, session_dir);
    }

    if (config.threads == 1) {  // the default
      baselines[config.granularity] =
          Baseline{park, stepped, {scripts[0], scripts[1]}};
      continue;
    }
    const Baseline& base = baselines.at(config.granularity);
    {
      SCOPED_TRACE("Park() vs default");
      ExpectMatchesDefault(park, base.park);
    }
    {
      SCOPED_TRACE("ParkStepper vs default");
      ExpectMatchesDefault(stepped, base.stepped);
    }
    for (int on = 0; on < 2; ++on) {
      ASSERT_EQ(scripts[on].size(), base.scripts[on].size());
      for (size_t k = 0; k < scripts[on].size(); ++k) {
        SCOPED_TRACE(StrFormat("script maintenance=%s commit %zu",
                               on ? "on" : "off", k));
        ExpectMatchesDefault(scripts[on][k], base.scripts[on][k]);
      }
    }
  }
}

// --- generated cases ---

const char* const kConstants[] = {"a", "b", "c"};
struct Predicate {
  const char* name;
  int arity;
};
const Predicate kPredicates[] = {{"u0", 1}, {"u1", 1}, {"b0", 2}};

std::string RandomGroundAtom(Rng& rng) {
  const Predicate& p = kPredicates[rng.UniformInt(0, 2)];
  std::string atom = std::string(p.name) + "(";
  for (int i = 0; i < p.arity; ++i) {
    atom += (i > 0 ? ", " : "") + std::string(kConstants[rng.UniformInt(0, 2)]);
  }
  return atom + ")";
}

/// A random safe program over u0/1, u1/1 and b0/2: each body opens with
/// a positive or event literal, adds positive, event and negated ones,
/// and heads insert or delete, so conflicts, restarts and ECA triggers
/// are common.
std::string RandomRules(Rng& rng) {
  const char* const kVars[] = {"X", "Y", "Z"};
  std::string rules;
  const int64_t num_rules = rng.UniformInt(5, 9);
  for (int64_t r = 0; r < num_rules; ++r) {
    std::vector<std::string> bound;
    // A term: a constant, a bound variable, or (when the literal binds)
    // a fresh one.
    auto term = [&](bool binds) -> std::string {
      if (rng.Bernoulli(0.15) || (bound.empty() && !binds)) {
        return kConstants[rng.UniformInt(0, 2)];
      }
      if (binds && bound.size() < 3 && (bound.empty() || rng.Bernoulli(0.5))) {
        bound.push_back(kVars[bound.size()]);
        return bound.back();
      }
      return bound[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bound.size()) - 1))];
    };
    auto atom = [&](bool binds) {
      const Predicate& p = kPredicates[rng.UniformInt(0, 2)];
      std::string out = std::string(p.name) + "(";
      for (int i = 0; i < p.arity; ++i) {
        out += (i > 0 ? ", " : "") + term(binds);
      }
      return out + ")";
    };
    auto event_or_positive = [&](double event) {
      const double roll = rng.UniformDouble();
      return roll < event / 2 ? "+" : roll < event ? "-" : "";
    };
    std::vector<std::string> body;
    body.push_back(event_or_positive(0.4) + atom(/*binds=*/true));
    const int64_t extra = rng.UniformInt(0, 2);
    for (int64_t b = 0; b < extra; ++b) {
      if (rng.Bernoulli(0.5)) {
        body.push_back("!" + atom(/*binds=*/false));
      } else {
        body.push_back(event_or_positive(0.3) + atom(/*binds=*/true));
      }
    }
    rules += StrFormat("r%lld: ", static_cast<long long>(r)) +
             Join(body, ", ") + (rng.Bernoulli(0.55) ? " -> +" : " -> -") +
             atom(/*binds=*/false) + ".\n";
  }
  return rules;
}

Case RandomCase(uint64_t seed) {
  Rng rng(seed);
  Case c;
  c.rules = RandomRules(rng);
  for (int i = 0; i < 10; ++i) c.facts += RandomGroundAtom(rng) + ". ";
  const int64_t commits = rng.UniformInt(2, 4);
  for (int64_t k = 0; k < commits; ++k) {
    std::vector<std::string> updates;
    const int64_t n = rng.UniformInt(0, 3);
    for (int64_t u = 0; u < n; ++u) {
      updates.push_back((rng.Bernoulli(0.5) ? "+" : "-") +
                        RandomGroundAtom(rng));
    }
    c.commits.push_back(std::move(updates));
  }
  const PolicyKind kPolicies[] = {
      PolicyKind::kInertia, PolicyKind::kAlwaysInsert,
      PolicyKind::kAlwaysDelete, PolicyKind::kPriorityOverInertia,
      PolicyKind::kSpecificityOverInertia};
  c.policy = kPolicies[seed % 5];
  return c;
}

TEST(DifferentialTest, GeneratedCases) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    const Case c = RandomCase(seed);
    SCOPED_TRACE(c.rules);
    CheckCase(c, coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(coverage.cases, 60u);
  EXPECT_GT(coverage.restarts, 60u);
  EXPECT_GT(coverage.seeded_resolutions, 0u);
  EXPECT_GT(coverage.granularity_splits, 0u);
  EXPECT_GT(coverage.inserted, 0u);
  EXPECT_GT(coverage.deleted, 0u);
  ExpectMachineryRan(coverage);
}

// --- metamorphic: renaming and reordering ---
//
// Under kAllConflicts every conflict of a round is resolved, so neither
// the order of the rule and fact text nor the names in it may change what
// PARK returns: map constants and predicates through a bijection, shuffle
// the rules and the facts, and the result and B, mapped back, must be
// the same. A policy that reads names (predicate bias) or positions
// (rule priority's default) could tell the difference; rule priority
// takes part only with an explicit priority on every rule.

/// Renames whole identifier tokens of `text` through `names`; every
/// other token (rule labels, variables, annotations) stays.
std::string RenameTokens(const std::string& text,
                         const std::map<std::string, std::string>& names) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    const auto word = [&](size_t k) {
      return k < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[k])) ||
              text[k] == '_');
    };
    if (!word(i)) {
      out += text[i++];
      continue;
    }
    size_t end = i;
    while (word(end)) ++end;
    const std::string token = text.substr(i, end - i);
    auto it = names.find(token);
    out += it == names.end() ? token : it->second;
    i = end;
  }
  return out;
}

/// Splits "x. y. z. " (facts) or one rule per line (rules) into items.
std::vector<std::string> SplitItems(const std::string& text, char end) {
  std::vector<std::string> items;
  std::string item;
  for (char ch : text) {
    item += ch;
    if (ch == end) {
      const size_t first = item.find_first_not_of(" \n");
      if (first != std::string::npos) items.push_back(item.substr(first));
      item.clear();
    }
  }
  return items;
}

/// The result database and the rendered B of PARK(D, P_U) under
/// kAllConflicts, or the failure's status code.
struct Outcome {
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> database;
  std::vector<std::string> blocked;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

void PrintTo(const Outcome& o, std::ostream* os) {
  *os << "code " << static_cast<int>(o.code) << ", database {"
      << Join(o.database, ", ") << "}, blocked {" << Join(o.blocked, " ")
      << "}";
}

Outcome Evaluate(const Case& c, PolicyPtr policy) {
  const std::unique_ptr<Parsed> parsed = Parse(c);
  ParkOptions options;
  options.policy = std::move(policy);
  auto result = Park(parsed->db, parsed->program, FirstCommit(*parsed),
                     options);
  Outcome out;
  if (!result.ok()) {
    out.code = result.status().code();
    return out;
  }
  out.database = result->database.SortedAtomStrings();
  out.blocked = result->blocked;
  return out;
}

/// `c` renamed through `names` with its rules and facts shuffled.
Case Disguise(const Case& c, const std::map<std::string, std::string>& names,
              Rng& rng) {
  Case out;
  std::vector<std::string> rules = SplitItems(c.rules, '\n');
  std::vector<std::string> facts = SplitItems(c.facts, '.');
  rng.Shuffle(rules);
  rng.Shuffle(facts);
  for (const std::string& rule : rules) out.rules += RenameTokens(rule, names);
  for (const std::string& fact : facts) {
    out.facts += RenameTokens(fact, names) + " ";
  }
  for (const std::vector<std::string>& commit : c.commits) {
    std::vector<std::string> renamed;
    for (const std::string& u : commit) {
      renamed.push_back(RenameTokens(u, names));
    }
    out.commits.push_back(std::move(renamed));
  }
  out.policy = c.policy;
  return out;
}

/// Maps a disguised outcome's names back, and sorts again.
Outcome Unmask(Outcome outcome,
               const std::map<std::string, std::string>& inverse) {
  for (auto* list : {&outcome.database, &outcome.blocked}) {
    for (std::string& item : *list) item = RenameTokens(item, inverse);
    std::sort(list->begin(), list->end());
  }
  return outcome;
}

/// A random bijection of `from` onto fresh names `prefix`0, `prefix`1, ...
void AddBijection(const std::vector<std::string>& from,
                  const std::string& prefix, Rng& rng,
                  std::map<std::string, std::string>& names) {
  std::vector<std::string> to;
  for (size_t i = 0; i < from.size(); ++i) {
    to.push_back(prefix + std::to_string(i));
  }
  rng.Shuffle(to);
  for (size_t i = 0; i < from.size(); ++i) names[from[i]] = to[i];
}

/// Checks `c` under `policy` against two disguises of itself.
void ExpectOrderAndNameFree(const Case& c,
                            const std::function<PolicyPtr()>& policy,
                            const std::vector<std::string>& constants,
                            const std::vector<std::string>& predicates,
                            uint64_t seed, size_t& resolved) {
  const Outcome plain = Evaluate(c, policy());
  resolved += plain.code == StatusCode::kOk && !plain.blocked.empty();
  Rng rng(seed);
  for (int variant = 0; variant < 2; ++variant) {
    SCOPED_TRACE(StrFormat("variant %d", variant));
    std::map<std::string, std::string> names;
    AddBijection(constants, "k", rng, names);
    AddBijection(predicates, "pred", rng, names);
    std::map<std::string, std::string> inverse;
    for (const auto& [from, to] : names) inverse[to] = from;
    const Case disguised = Disguise(c, names, rng);
    SCOPED_TRACE(disguised.rules + disguised.facts);
    EXPECT_EQ(Unmask(Evaluate(disguised, policy()), inverse), plain);
  }
}

TEST(DifferentialTest, RenamingAndReorderingKeepResultAndBlocked) {
  const std::vector<std::string> constants = {"a", "b", "c"};
  std::vector<std::string> predicates;
  for (const Predicate& p : kPredicates) predicates.push_back(p.name);
  const std::vector<std::pair<const char*, std::function<PolicyPtr()>>>
      policies = {
          {"inertia", [] { return MakeInertiaPolicy(); }},
          {"insert", [] { return MakeAlwaysInsertPolicy(); }},
          {"delete", [] { return MakeAlwaysDeletePolicy(); }},
          // Reads only whether an atom's two arguments are equal; unary
          // atoms fall through to inertia.
          {"irreflexive",
           [] {
             return MakeCompositePolicy(
                 {MakeIrreflexiveGraphPolicy(), MakeInertiaPolicy()});
           }},
      };
  size_t resolved = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    const Case c = RandomCase(seed);
    SCOPED_TRACE(c.rules + c.facts);
    for (const auto& [name, policy] : policies) {
      SCOPED_TRACE(name);
      ExpectOrderAndNameFree(c, policy, constants, predicates, seed,
                             resolved);
    }
    // Rule priority, with a distinct explicit priority on every rule.
    Case prioritized = c;
    prioritized.rules.clear();
    std::vector<std::string> rules = SplitItems(c.rules, '\n');
    std::vector<int> priorities(rules.size());
    for (size_t i = 0; i < rules.size(); ++i) {
      priorities[i] = static_cast<int>(i) + 1;
    }
    Rng rng(seed + 1000);
    rng.Shuffle(priorities);
    for (size_t i = 0; i < rules.size(); ++i) {
      const size_t colon = rules[i].find(':');
      prioritized.rules += rules[i].substr(0, colon) +
                           StrFormat(" [prio=%d]", priorities[i]) +
                           rules[i].substr(colon);
    }
    SCOPED_TRACE("priority");
    ExpectOrderAndNameFree(
        prioritized,
        [] {
          return MakeCompositePolicy(
              {MakeRulePriorityPolicy(), MakeInertiaPolicy()});
        },
        constants, predicates, seed, resolved);
    if (HasFatalFailure()) return;
  }
  // The §4.2 graph example with its own SELECT, which compares the
  // integer node labels: predicates renamed, labels kept, text shuffled.
  for (int nodes : {4, 6}) {
    SCOPED_TRACE(StrFormat("irreflexive graph, %d nodes", nodes));
    ExpectOrderAndNameFree(
        FromWorkload(MakeIrreflexiveGraphWorkload(nodes),
                     PolicyKind::kIrreflexiveGraph),
        [] { return MakeIrreflexiveGraphPolicy(); }, {}, {"p", "q"},
        static_cast<uint64_t>(nodes), resolved);
  }
  // Most cases resolve conflicts, so B is compared, not only the result.
  EXPECT_GT(resolved, 150u);
}

// --- row hints ---
//
// A mark store presizes its relations for the rows each predicate's
// relation held when it last left a mark store on this thread
// (Database::Pooled), whatever program that was. Hints change capacity
// only: every generated case returns the same bytes on a thread primed
// by a much larger program whose predicate ids are the case's, and on a
// fresh thread; so does a large run on a thread whose hints are far
// smaller than the run.

/// The closure of an n-node cycle in d0, n² atoms, copied reversed into
/// d1 and as is into d2. d0, d1 and d2 are predicates 0, 1 and 2 of its
/// symbol table, the ids of a generated case's u0, u1 and b0, and a bare
/// Park() leaves each a row hint of n².
std::unique_ptr<Parsed> CycleClosure(int n) {
  auto parsed = std::make_unique<Parsed>();
  for (const char* name : {"d0", "d1", "d2"}) {
    parsed->symbols->InternPredicate(name, 2);
  }
  parsed->program = testing_util::MustParseProgram(
      "t0: edge(X, Y) -> +d0(X, Y).\n"
      "t1: d0(X, Y), edge(Y, Z) -> +d0(X, Z).\n"
      "t2: d0(X, Y) -> +d1(Y, X).\n"
      "t3: d0(X, Y) -> +d2(X, Y).\n",
      parsed->symbols);
  std::string facts;
  for (int i = 0; i < n; ++i) {
    facts += StrFormat("edge(%d, %d). ", i, (i + 1) % n);
  }
  parsed->db = testing_util::MustParseDatabase(facts, parsed->symbols);
  return parsed;
}

/// Everything a bare Park() of `run` returns that does not vary with
/// time, rendered: the result's atoms in iteration order (relation by
/// relation, rows in row order), B, the provenance, the trace and the
/// deterministic stats blocks. Evaluated on a new thread, after a bare
/// Park() of `prime` there unless it is null.
std::string ParkBitsOnThread(const Parsed* prime, const Parsed& run,
                             ParkOptions options) {
  options.trace_level = TraceLevel::kFull;
  options.record_provenance = true;
  std::string out;
  std::thread thread([&] {
    if (prime != nullptr) {
      EXPECT_TRUE(Park(prime->db, prime->program, FirstCommit(*prime),
                       ParkOptions())
                      .ok());
    }
    auto result = Park(run.db, run.program, FirstCommit(run), options);
    if (!result.ok()) {
      out = result.status().ToString();
      return;
    }
    result->database.ForEachRelation(
        [&](PredicateId pred, const Relation& rel) {
          rel.ForEach([&](std::span<const Value> row) {
            out +=
                GroundAtom(AtomView{pred, row}).ToString(*run.symbols) + " ";
          });
        });
    out += "\nB: " + Join(result->blocked, " ");
    for (const AtomProvenance& p : result->provenance) {
      out += "\n" + p.atom + " <- " + Join(p.derived_by, ", ");
    }
    out += "\n" + result->trace.ToString() +
           DeterministicBlocks(result->stats, /*maintenance=*/false);
  });
  thread.join();
  return out;
}

TEST(DifferentialTest, RowHintsNeverChangeBits) {
  const std::unique_ptr<Parsed> large = CycleClosure(48);
  const std::unique_ptr<Parsed> tiny = CycleClosure(1);
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    const Case c = RandomCase(seed);
    const std::unique_ptr<Parsed> parsed = Parse(c);
    ASSERT_LE(parsed->symbols->NumPredicates(), 3u);
    for (const Config& config : AllConfigs()) {
      SCOPED_TRACE(ConfigName(config));
      const ParkOptions options = OptionsFor(config, c.policy);
      EXPECT_EQ(ParkBitsOnThread(large.get(), *parsed, options),
                ParkBitsOnThread(nullptr, *parsed, options));
    }
  }
  // A hint of one row where the run marks 48² = 2,304 atoms.
  for (const Config& config : AllConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    const ParkOptions options = OptionsFor(config, PolicyKind::kInertia);
    const std::string fresh = ParkBitsOnThread(nullptr, *large, options);
    EXPECT_EQ(ParkBitsOnThread(tiny.get(), *large, options), fresh);
    const std::string atoms = fresh.substr(0, fresh.find("\nB:"));
    EXPECT_EQ(std::count(atoms.begin(), atoms.end(), '('), 48 + 3 * 48 * 48);
  }
}

// --- fixed cases ---

TEST(DifferentialTest, PaperExamples) {
  const char* programs[] = {
      "r1: p -> +q. r2: p -> -a. r3: q -> +a.",
      "r1: p -> +q. r2: p -> -a. r3: q -> +a. r4: !a -> +r. r5: a -> +s.",
      "r1: p -> +q. r2: p -> -q. r3: q -> +a. r4: q -> -a. r5: p -> +a.",
      "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.",
      "r1: a -> +b. r2: a -> +d. r3: b -> +c. r4: b -> -d. r5: c -> -b.",
  };
  const char* facts[] = {"p.", "p.", "p.", "p.", "a."};
  Coverage coverage;
  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE(programs[i]);
    CheckCase(Case{programs[i], facts[i], {}, PolicyKind::kInertia},
              coverage);
  }
  // E9: the §5 program under rule priority.
  CheckCase(Case{programs[3], "p.", {}, PolicyKind::kPriorityOverInertia},
            coverage);
  // E5/E6: the §4.3 ECA examples.
  CheckCase(Case{"r1: p(X) -> +q(X). r2: q(X) -> +r(X). r3: +r(X) -> -s(X).",
                 "p(a). s(a). s(b).",
                 {{"+q(b)"}, {"-p(a)"}},
                 PolicyKind::kInertia},
            coverage);
  CheckCase(Case{"r1: q(X, a) -> -p(X, a). r2: q(a, X) -> +r(a, X). "
                 "r3: +r(X, a) -> +p(X, a).",
                 "p(a, a). p(a, b). p(a, c).",
                 {{"+q(a, a)"}, {"+q(a, b)", "-p(a, c)"}},
                 PolicyKind::kInertia},
            coverage);
  // E4: the §4.2 graph example, whose SELECT is the workload's own, at
  // the paper's size and at two larger ones whose rounds clash on many
  // atoms at once.
  for (int nodes : {4, 6, 8}) {
    SCOPED_TRACE(StrFormat("irreflexive graph, %d nodes", nodes));
    CheckCase(FromWorkload(MakeIrreflexiveGraphWorkload(nodes),
                           PolicyKind::kIrreflexiveGraph),
              coverage);
  }
  EXPECT_GT(coverage.seeded_resolutions, 0u);
  ExpectMachineryRan(coverage);
}

TEST(DifferentialTest, ValidityCorners) {
  // Propositional, like ConflictPairs' workloads: no rows to plan or
  // batch, so neither holds its coverage to ExpectMachineryRan.
  //
  // A pending deletion keeps `q` valid and makes `!q` valid; `+s`/`-q`
  // events hold only once marked; `+u` falsifies `!u`. r3 is matched
  // through its first literal's seed and checks `!q` as a filter.
  Coverage coverage;
  CheckCase(Case{"r1: p -> -q. r2: p -> +s. r3: s, !q -> +t. "
                 "r4: t, q -> +w. r5: +s, -q -> +e. r6: e -> +u. "
                 "r7: w, !u -> +late.",
                 "p. q.",
                 {{"-p"}, {"+q", "+p"}},
                 PolicyKind::kInertia},
            coverage);
}

/// Random edge commits for the closure program: mostly inserts of random
/// edges (some already present), and deletes of edges inserted earlier.
std::vector<std::vector<std::string>> RandomEdgeCommits(uint64_t seed,
                                                        int commits,
                                                        int updates_per) {
  Rng rng(seed);
  std::vector<std::pair<int64_t, int64_t>> present;
  std::vector<std::vector<std::string>> script;
  for (int c = 0; c < commits; ++c) {
    std::vector<std::string> commit;
    for (int u = 0; u < updates_per; ++u) {
      if (present.empty() || rng.UniformInt(0, 9) < 7) {
        present.emplace_back(rng.UniformInt(0, 9), rng.UniformInt(0, 9));
        commit.push_back(StrFormat("+e(n%lld, n%lld)",
                                   static_cast<long long>(present.back().first),
                                   static_cast<long long>(present.back().second)));
      } else {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(present.size()) - 1));
        commit.push_back(StrFormat("-e(n%lld, n%lld)",
                                   static_cast<long long>(present[at].first),
                                   static_cast<long long>(present[at].second)));
        present.erase(present.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    script.push_back(std::move(commit));
  }
  return script;
}

TEST(DifferentialTest, ClosureScripts) {
  // Insert-only heads over positive bodies: statically eligible, so the
  // maintainer serves the edge commits incrementally.
  Coverage coverage;
  Workload w = MakeTransitiveClosureWorkload(GraphShape::kRandom, 8, 14, 3);
  CheckCase(FromWorkload(w, PolicyKind::kInertia,
                         {{"+edge(0, 5)", "+edge(5, 6)"},
                          {"-edge(0, 5)"},
                          {"+edge(7, 0)"}}),
            coverage);
  for (uint64_t seed : {1u, 42u}) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    CheckCase(Case{"base: e(X, Y) -> +t(X, Y). "
                   "step: t(X, Z), e(Z, Y) -> +t(X, Y).",
                   "e(n0, n1). e(n1, n2).",
                   RandomEdgeCommits(seed, /*commits=*/8, /*updates_per=*/3),
                   PolicyKind::kInertia},
              coverage);
  }
  EXPECT_GT(coverage.maintained_commits, 0u);
  EXPECT_GT(coverage.inserted, 0u);
  EXPECT_GT(coverage.deleted, 0u);
  ExpectMachineryRan(coverage);
}

TEST(DifferentialTest, MaintenanceGateScripts) {
  Coverage coverage;
  // A derived-predicate delete, a both-signs conflict (whose restart
  // drops the invariant for one commit), then eligible commits again.
  CheckCase(Case{"base: e(X, Y) -> +t(X, Y). "
                 "step: t(X, Z), e(Z, Y) -> +t(X, Y).",
                 "e(n0, n1). e(n1, n2).",
                 {{"+e(n0, n3)"},
                  {"-t(n0, n1)"},
                  {"+e(n4, n5)", "-e(n4, n5)"},
                  {"+e(n3, n4)"},
                  {"+e(n5, n6)"}},
                 PolicyKind::kInertia},
            coverage);
  // An insert into a negated (non-head) predicate needs no gate
  // (docs/INCREMENTAL.md): every commit after Stabilize is maintained, in
  // every configuration.
  {
    Coverage negated;
    CheckCase(Case{"r: e(X, Y), !blocked(X) -> +t(X, Y).",
                   "",
                   {{"+e(n0, n1)"},
                    {"+blocked(n0)", "+e(n0, n2)"},
                    {"+e(n2, n3)"}},
                   PolicyKind::kInertia},
              negated);
    EXPECT_EQ(negated.maintained_commits, 3 * AllConfigs().size());
    coverage.maintained_commits += negated.maintained_commits;
  }
  // Statically ineligible: delete heads, negation and events over heads.
  CheckCase(Case{"onboard: +emp(X) -> +active(X). "
                 "cleanup: emp(X), !active(X), payroll(X, S) -> "
                 "-payroll(X, S). "
                 "notify: +active(X) -> +notified(X).",
                 "",
                 {{"+emp(ann)", "+payroll(ann, s1)"},
                  {"+emp(bob)"},
                  {"-emp(ann)"}},
                 PolicyKind::kInertia},
            coverage);
  // Event feedback onto a head predicate: statically ineligible.
  CheckCase(Case{"a: p(X) -> +active(X). b: +active(X) -> +notified(X).",
                 "",
                 {{"+p(ann)"}, {"+p(bob)"}, {"+q(zz)"}},
                 PolicyKind::kInertia},
            coverage);
  EXPECT_GT(coverage.maintained_commits, 0u);
  ExpectMachineryRan(coverage);
}

TEST(DifferentialTest, ConflictPairs) {
  Coverage coverage;
  for (double fraction : {0.3, 1.0}) {
    SCOPED_TRACE(fraction);
    CheckCase(FromWorkload(MakeConflictPairsWorkload(12, fraction, 77),
                           PolicyKind::kInertia),
              coverage);
  }
  CheckCase(FromWorkload(MakeRestartChainWorkload(8, 3),
                         PolicyKind::kPriorityOverInertia),
            coverage);
  EXPECT_GT(coverage.restarts, 0u);
  EXPECT_GT(coverage.seeded_resolutions, 0u);
  EXPECT_GT(coverage.parallel_tasks, 0u);
}

TEST(DifferentialTest, KiloruleChain) {
  Coverage coverage;
  CheckCase(FromWorkload(MakeKiloruleWorkload(/*chains=*/4, /*levels=*/8,
                                              /*facts=*/2),
                         PolicyKind::kInertia,
                         {{"+p_0_0(7)"}, {"-p_1_0(0)"}}),
            coverage);
  ExpectMachineryRan(coverage);
}

TEST(DifferentialTest, PayrollEca) {
  PayrollParams params;
  params.num_employees = 24;
  params.inactive_fraction = 0.2;
  params.num_deactivations = 4;
  params.seed = 5;
  Coverage coverage;
  CheckCase(FromWorkload(MakePayrollWorkload(params), PolicyKind::kInertia,
                         {{"+emp(e_new)", "+payroll(e_new, 900)"}}),
            coverage);
  ExpectMachineryRan(coverage);
}

TEST(DifferentialTest, SkewedJoins) {
  // One small literal next to a large scan, so the planner reorders the
  // body and probes the large relation on its bound column.
  std::string facts = "sel(c0). sel(c1). ";
  Rng rng(17);
  for (int i = 0; i < 150; ++i) {
    facts += StrFormat("big(x%d, c%d). ", i,
                       static_cast<int>(rng.UniformInt(0, 5)));
  }
  Coverage coverage;
  CheckCase(Case{"skew: big(X, Y), sel(Y) -> +out(X). "
                 "chain: out(X), big(X, Y) -> +hit(Y).",
                 facts,
                 {{"+sel(c2)"}, {"-sel(c0)"}},
                 PolicyKind::kInertia},
            coverage);
  ExpectMachineryRan(coverage);
}

}  // namespace
}  // namespace park
