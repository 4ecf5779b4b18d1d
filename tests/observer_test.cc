#include "core/observer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/park_evaluator.h"
#include "core/stepper.h"
#include "eca/active_database.h"
#include "lang/parser.h"
#include "util/string_util.h"

namespace park {
namespace {

// §5 program: forces two restarts under inertia, so a run exercises every
// loop event (gamma, conflict round, policy decision, restart, fixpoint).
constexpr char kSection5[] =
    "r1: p -> +a. r2: p -> +q. r3: a -> +b. r4: a -> -q. r5: b -> +q.";

struct Fixture {
  std::shared_ptr<SymbolTable> symbols = MakeSymbolTable();
  Program program;
  Database db;

  Fixture()
      : program(ParseProgram(kSection5, symbols).value()),
        db(ParseDatabase("p.", symbols).value()) {}
};

/// Records every event as one line, for ordering assertions.
class EventLog : public RunObserver {
 public:
  void OnRunStart(const RunStartInfo& info) override {
    events.push_back(StrFormat("run_start rules=%zu threads=%d",
                               info.num_rules, info.num_threads));
  }
  void OnStepStart(int step) override {
    events.push_back(StrFormat("step %d", step));
  }
  void OnGammaSection(const GammaSectionInfo& info) override {
    events.push_back(StrFormat("gamma step=%d consistent=%d", info.step,
                               info.consistent ? 1 : 0));
  }
  void OnPolicyDecision(const Conflict&, Vote vote) override {
    events.push_back(StrFormat(
        "policy %s", vote == Vote::kInsert ? "insert" : "delete"));
  }
  void OnConflictRound(const ConflictRoundInfo& info) override {
    events.push_back(StrFormat("conflict_round restart=%zu conflicts=%zu",
                               info.restart, info.conflicts));
  }
  void OnRestart(size_t restart) override {
    events.push_back(StrFormat("restart %zu", restart));
  }
  void OnFixpoint(int step) override {
    events.push_back(StrFormat("fixpoint %d", step));
  }
  void OnRunEnd(const ParkStats& stats) override {
    events.push_back(StrFormat("run_end restarts=%zu", stats.restarts));
  }
  void OnCommitStart(size_t updates) override {
    events.push_back(StrFormat("commit_start %zu", updates));
  }
  void OnCommitEnd(const CommitEndInfo& info) override {
    events.push_back(StrFormat("commit_end ins=%zu del=%zu seq=%llu",
                               info.inserted, info.deleted,
                               static_cast<unsigned long long>(
                                   info.journal_seq)));
  }
  void OnJournalAppend(uint64_t seq) override {
    events.push_back(StrFormat(
        "journal %llu", static_cast<unsigned long long>(seq)));
  }
  void OnCheckpoint(uint64_t seq) override {
    events.push_back(StrFormat(
        "checkpoint %llu", static_cast<unsigned long long>(seq)));
  }

  bool Has(const std::string& prefix) const {
    return IndexOf(prefix) >= 0;
  }
  int IndexOf(const std::string& prefix) const {
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].rfind(prefix, 0) == 0) return static_cast<int>(i);
    }
    return -1;
  }

  std::vector<std::string> events;
};

TEST(ObserverTest, ParkFiresEventsInStructuralOrder) {
  Fixture f;
  EventLog log;
  ParkOptions options;
  options.observer = &log;
  auto result = Park(f.program, f.db, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_FALSE(log.events.empty());
  // The envelope: run_start first, run_end last, fixpoint just before.
  EXPECT_EQ(log.events.front().rfind("run_start", 0), 0u) << log.events[0];
  EXPECT_EQ(log.events.back().rfind("run_end", 0), 0u);
  EXPECT_EQ(log.events[log.events.size() - 2].rfind("fixpoint", 0), 0u);
  // §5 under inertia restarts twice; the loop events must all be present
  // and ordered: a conflict's policy decisions precede its round event,
  // which precedes the restart.
  EXPECT_TRUE(log.Has("restart 1"));
  EXPECT_TRUE(log.Has("restart 2"));
  EXPECT_LT(log.IndexOf("policy"), log.IndexOf("conflict_round"));
  EXPECT_LT(log.IndexOf("conflict_round"), log.IndexOf("restart 1"));
  // Every gamma event carries its step; the first is step 0.
  EXPECT_TRUE(log.Has("gamma step=0"));
  // run_start reports the resolved configuration.
  EXPECT_EQ(log.events[0], "run_start rules=5 threads=1");
}

TEST(ObserverTest, StepperFiresSameEventSkeleton) {
  Fixture f;
  EventLog batch_log;
  ParkOptions options;
  options.observer = &batch_log;
  ASSERT_TRUE(Park(f.program, f.db, options).ok());

  EventLog step_log;
  ParkOptions step_options;
  step_options.observer = &step_log;
  ParkStepper stepper(f.program, f.db, step_options);
  ASSERT_TRUE(stepper.Finish().ok());
  // The stepper is the same Δ loop exposed incrementally: identical
  // event sequence, event for event.
  EXPECT_EQ(step_log.events, batch_log.events);
}

class ThrowingObserver : public RunObserver {
 public:
  void OnGammaSection(const GammaSectionInfo&) override {
    ++calls;
    throw std::runtime_error("observer bug");
  }
  int calls = 0;
};

TEST(ObserverTest, ThrowingObserverIsDetachedAndResultUnchanged) {
  Fixture f;
  auto plain = Park(f.program, f.db, ParkOptions());
  ASSERT_TRUE(plain.ok());

  ThrowingObserver thrower;
  ParkOptions options;
  options.observer = &thrower;
  auto observed = Park(f.program, f.db, options);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  // Thrown once, detached, never called again.
  EXPECT_EQ(thrower.calls, 1);
  // The evaluation result is exactly the unobserved one.
  EXPECT_EQ(observed->database.ToString(), plain->database.ToString());
  EXPECT_EQ(observed->stats.gamma_steps, plain->stats.gamma_steps);
  EXPECT_EQ(observed->stats.restarts, plain->stats.restarts);
  EXPECT_EQ(observed->blocked, plain->blocked);
}

TEST(ObserverTest, TracingObserverRendersEveryLoopEvent) {
  Fixture f;
  std::ostringstream out;
  TracingObserver tracer(out, f.symbols.get());
  ParkOptions options;
  options.observer = &tracer;
  ASSERT_TRUE(Park(f.program, f.db, options).ok());
  std::string text = out.str();
  EXPECT_NE(text.find("run start"), std::string::npos);
  EXPECT_NE(text.find("gamma"), std::string::npos);
  EXPECT_NE(text.find("select"), std::string::npos);
  EXPECT_NE(text.find("restart"), std::string::npos);
  EXPECT_NE(text.find("fixpoint"), std::string::npos);
  // With a symbol table the conflict atom is rendered by name.
  EXPECT_NE(text.find("q"), std::string::npos);
}

TEST(ObserverTest, MetricsObserverAggregatesCounters) {
  Fixture f;
  MetricsRegistry registry;
  MetricsObserver metrics(&registry);
  ParkOptions options;
  options.observer = &metrics;
  auto result = Park(f.program, f.db, options);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(registry.GetCounter("park.runs")->value, 1u);
  EXPECT_EQ(registry.GetCounter("park.fixpoints")->value, 1u);
  EXPECT_EQ(registry.GetCounter("park.restarts")->value,
            result->stats.restarts);
  EXPECT_EQ(registry.GetCounter("park.conflicts")->value,
            result->stats.conflicts_resolved);
  EXPECT_GT(registry.GetCounter("park.steps")->value, 0u);
  EXPECT_GT(registry.GetCounter("park.derivations")->value, 0u);
  // The run timer recorded one sample (registry enabled by default).
  EXPECT_EQ(registry.GetTimer("park.run")->count, 1u);

  // A second run keeps aggregating into the same registry.
  ASSERT_TRUE(Park(f.program, f.db, options).ok());
  EXPECT_EQ(registry.GetCounter("park.runs")->value, 2u);
  EXPECT_EQ(registry.GetTimer("park.run")->count, 2u);
}

TEST(ObserverTest, CommitPipelineEventsIncludeJournalAndCheckpoint) {
  const std::string dir = ::testing::TempDir() + "park_observer_commit";
  std::filesystem::remove_all(dir);
  EventLog log;
  ActiveDatabase::OpenParams params;
  params.rules = "r1: p(X) -> +q(X).";
  params.sync_mode = JournalSyncMode::kFlush;
  params.options.observer = &log;
  auto db = ActiveDatabase::Open(dir, params);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto tx = db->Begin();
  tx.Insert("p", {"a"});
  auto report = std::move(tx).Commit();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->journal_seq, 1u);

  ASSERT_TRUE(db->Checkpoint().ok());

  // commit_start opens the pipeline, run events nest inside, the journal
  // append precedes commit_end, and the checkpoint is last.
  int commit_start = log.IndexOf("commit_start 1");
  int run_start = log.IndexOf("run_start");
  int journal = log.IndexOf("journal 1");
  int commit_end = log.IndexOf("commit_end");
  int checkpoint = log.IndexOf("checkpoint 1");
  ASSERT_GE(commit_start, 0);
  ASSERT_GE(run_start, 0);
  ASSERT_GE(journal, 0);
  ASSERT_GE(commit_end, 0);
  ASSERT_GE(checkpoint, 0);
  EXPECT_LT(commit_start, run_start);
  EXPECT_LT(run_start, journal);
  EXPECT_LT(journal, commit_end);
  EXPECT_LT(commit_end, checkpoint);
  EXPECT_EQ(log.events[commit_end], "commit_end ins=2 del=0 seq=1");
}

TEST(ObserverTest, CommitReportCarriesTimings) {
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules("r1: p(X) -> +q(X).").ok());
  auto tx = db.Begin();
  tx.Insert("p", {"a"});
  auto report = std::move(tx).Commit();
  ASSERT_TRUE(report.ok());
  // Commit timings are always collected; total covers the phases.
  EXPECT_GT(report->timings.total_ns, 0u);
  EXPECT_GT(report->timings.evaluate_ns, 0u);
  EXPECT_GE(report->timings.total_ns,
            report->timings.evaluate_ns + report->timings.apply_ns);
  // No journal attached: no journal time, no sequence number.
  EXPECT_EQ(report->timings.journal_ns, 0u);
  EXPECT_EQ(report->journal_seq, 0u);
}

TEST(ObserverTest, ThrowingObserverDoesNotPoisonCommit) {
  ThrowingObserver thrower;
  ActiveDatabase db;
  ASSERT_TRUE(db.LoadRules(kSection5).ok());
  ASSERT_TRUE(db.LoadFacts("p.").ok());
  ParkOptions options;
  options.observer = &thrower;
  ASSERT_TRUE(db.Configure(std::move(options)).ok());
  auto report = db.Stabilize();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The bi-structure landed in the normal §5 state despite the throw.
  EXPECT_EQ(db.database().ToString(), "{a, b, p}");
  EXPECT_EQ(report->stats.restarts, 2u);
  EXPECT_EQ(thrower.calls, 1);
}

}  // namespace
}  // namespace park
