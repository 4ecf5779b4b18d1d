// kilorule_commit: an in-memory ActiveDatabase running 16 independent
// derivation chains of 128 rules each (2,050 rules with the two-rule SCC
// tail) under incremental maintenance. Each commit inserts one fresh
// fact at a chain's first level and wakes that chain through ~129 seeded
// Γ steps, so per-step Δ-loop overhead, the dependency scheduler and the
// maintainer dominate while matching stays trivial; there is no journal
// and no Session. One round of commits grows the database to ~1.5M
// atoms, far beyond cache. The seed picks the order in which chains are
// woken, the fact names, and the levels read back.
//
// No observer is installed, even in traced phases: an observer makes
// every commit fall back to the full evaluator. Child spans of a commit
// are synthesized from its CommitTimings and PhaseTimings instead.

#include <algorithm>
#include <optional>

#include "harness.h"
#include "trace.h"

namespace park_bench {
namespace {

struct Sizes {
  int chains;
  int levels;
  int facts;    // level-0 facts per chain loaded at set-up
  int commits;  // commits per round
};

/// Full size: 16 x 128 chains, 6,000 commits per round (~0.8M atoms).
constexpr Sizes kFull{16, 128, 4, 6000};
constexpr Sizes kSmoke{3, 8, 2, 40};
/// Every commit's diff is counted; every 64th is also compared atom by
/// atom (rendering 129 atoms costs about as much as the commit).
constexpr int kFullCheckEvery = 64;
/// Commits are read back in bursts: after every kReadBackEvery commits
/// (and at the end of a round), one point query per commit of the burst.
/// A query issued right after its own commit found the symbol table, the
/// relation map and the allocator cold. Its latency then grew about as
/// the square of the host's slowdown, more steeply than anything else
/// measured here, and the quartiles of query_p50_us over ten runs lay up
/// to 38% of the median apart. Read back in bursts, the same queries
/// slowed less than the host did, and their spread fell to about 6%.
constexpr size_t kReadBackEvery = 64;

std::string Pred(int chain, int level) {
  return "p_" + std::to_string(chain) + "_" + std::to_string(level);
}

class KiloruleCommit : public Workload {
 public:
  KiloruleCommit(const RunConfig& config, Verdict* verdict)
      : config_(config),
        verdict_(verdict),
        sizes_(config.smoke ? kSmoke : kFull) {
    Rng rng(config.seed * 0xd1b54a32d192ed03ULL + 3);
    for (int c = 0; c < sizes_.chains; ++c) {
      for (int l = 0; l < sizes_.levels; ++l) {
        rules_ += "c" + std::to_string(c) + "l" + std::to_string(l) + ": " +
                  Pred(c, l) + "(X) -> +" + Pred(c, l + 1) + "(X).\n";
      }
    }
    rules_ += "scc_q: cq(X) -> +cs(X).\nscc_s: cs(X) -> +cq(X).\n";
    std::vector<std::string> facts;
    for (int c = 0; c < sizes_.chains; ++c) {
      for (int f = 0; f < sizes_.facts; ++f) {
        facts.push_back(Atom(Pred(c, 0), {"s" + std::to_string(f)}) + ".\n");
      }
    }
    rng.Shuffle(facts);
    facts.push_back("cq(0).\n");
    for (const std::string& f : facts) facts_text_ += f;
    // Oracle: every level of every loaded fact, plus cq(0) and cs(0).
    initial_atoms_ =
        static_cast<size_t>(sizes_.chains) * sizes_.facts *
            (sizes_.levels + 1) + 2;

    std::vector<int> ids(sizes_.commits);
    for (int i = 0; i < sizes_.commits; ++i) ids[i] = i;
    rng.Shuffle(ids);
    std::vector<int> order(sizes_.chains);
    for (int i = 0; i < sizes_.commits; ++i) {
      if (i % sizes_.chains == 0) {
        // Each block of `chains` commits wakes every chain once.
        for (int c = 0; c < sizes_.chains; ++c) order[c] = c;
        rng.Shuffle(order);
      }
      CommitStep step;
      step.chain = order[i % sizes_.chains];
      step.fact = "f" + std::to_string(ids[i]);
      step.query_level = static_cast<int>(rng.Below(sizes_.levels + 1));
      script_.push_back(std::move(step));
    }
  }

  void SetUp(Tracer* tracer, LayerSamples* layers) override {
    Prepare(tracer != nullptr, tracer, layers);
  }

  void Measure(Clock::time_point deadline, Tracer* tracer, HostProbe* probe,
               Phase* phase) override {
    do {
      Prepare(tracer != nullptr, nullptr, nullptr);
      RunRound(tracer, probe, phase);
      db_.reset();
    } while (Clock::now() < deadline);
  }

 private:
  struct CommitStep {
    int chain = 0;
    std::string fact;
    int query_level = 0;
  };

  /// Builds a fresh, stabilized database. `traced` selects the traced
  /// engine options; `tracer` and `layers` record the set-up itself.
  void Prepare(bool traced, Tracer* tracer, LayerSamples* layers) {
    db_.reset();
    db_.emplace();
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "LoadRules", Layer::kLang);
      park::Status s = db_->LoadRules(rules_);
      PARK_CHECK(s.ok()) << s.ToString();
    }
    int64_t t1 = NowNs();
    {
      ScopedSpan span(tracer, "LoadFacts", Layer::kLang);
      park::Status s = db_->LoadFacts(facts_text_);
      PARK_CHECK(s.ok()) << s.ToString();
    }
    int64_t t2 = NowNs();
    park::ParkOptions options = BaseOptions(config_, traced);
    options.maintenance_mode = park::MaintenanceMode::kIncremental;
    park::Status s = db_->Configure(options);
    PARK_CHECK(s.ok()) << s.ToString();
    {
      ScopedSpan span(tracer, "Stabilize", Layer::kEca);
      park::CommitResult stable = db_->Stabilize();
      PARK_CHECK(stable.ok()) << stable.status().ToString();
    }
    if (db_->database().size() != initial_atoms_) {
      verdict_->Fail("stabilized kilorule database has " +
                     std::to_string(db_->database().size()) +
                     " atoms, oracle expects " +
                     std::to_string(initial_atoms_));
    }
    if (layers != nullptr) {
      layers->Add("lang.parse_rules_ms", MsBetween(t0, t1));
      layers->Add("lang.parse_facts_ms", MsBetween(t1, t2));
      layers->Add("storage.load_facts_ms",
                  TimeReload(db_->database(), tracer));
    }
  }

  void RunRound(Tracer* tracer, HostProbe* probe, Phase* phase) {
    const size_t per_commit = static_cast<size_t>(sizes_.levels) + 1;
    const park::SymbolTable& symbols = *db_->symbols();
    size_t read_back = 0;  // commits before this one have been queried
    for (size_t i = 0; i < script_.size(); ++i) {
      const CommitStep& step = script_[i];
      park::Transaction tx = db_->Begin();
      tx.Insert(Pred(step.chain, 0), {step.fact});
      uint32_t commit_span = 0;
      int64_t t0 = 0, t1 = 0;
      std::optional<park::CommitResult> result;
      {
        ScopedSpan span(tracer, "Commit", Layer::kEca,
                        tracer != nullptr ? tracer->NextOp() : 0);
        commit_span = span.id();
        t0 = NowNs();
        result.emplace(std::move(tx).Commit());
        t1 = NowNs();
      }
      if (!result->ok()) {
        verdict_->Count(1, 1);
        verdict_->Fail("commit failed: " + result->status().ToString());
        continue;
      }
      verdict_->Count(1, 0);
      const park::CommitReport& report = **result;
      phase->ops.push_back({t0, t1});

      if (report.inserted.size() != per_commit || !report.deleted.empty() ||
          report.stats.maint_commits != 1) {
        verdict_->Fail("commit " + std::to_string(i) + " inserted " +
                       std::to_string(report.inserted.size()) + " and deleted " +
                       std::to_string(report.deleted.size()) +
                       " atoms (maintained: " +
                       std::to_string(report.stats.maint_commits) +
                       "); oracle expects " + std::to_string(per_commit) +
                       " inserts by the maintainer");
      } else if (i % kFullCheckEvery == 0) {
        std::vector<std::string> got, want;
        for (const park::GroundAtom& a : report.inserted) {
          got.push_back(a.ToString(symbols));
        }
        for (int l = 0; l <= sizes_.levels; ++l) {
          want.push_back(Atom(Pred(step.chain, l), {step.fact}));
        }
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        if (got != want) {
          verdict_->Fail("commit " + std::to_string(i) +
                         " inserted atoms differ from the oracle");
        }
      }
      if (tracer != nullptr) RecordTraced(report, commit_span, t0, tracer,
                                          phase);
      if ((i + 1) % kReadBackEvery == 0 || i + 1 == script_.size()) {
        for (; read_back <= i; ++read_back) {
          Query(script_[read_back], tracer, phase);
        }
      }
      probe->Tick();
    }
    const size_t want = initial_atoms_ + script_.size() * per_commit;
    if (db_->database().size() != want) {
      verdict_->Fail("final kilorule database has " +
                     std::to_string(db_->database().size()) +
                     " atoms, oracle expects " + std::to_string(want));
    }
    if (tracer != nullptr) {
      int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "CompactColumnar", Layer::kStorage);
        db_->database().CompactColumnar();
      }
      phase->layers.Add("storage.compact_ms", MsBetween(t0, NowNs()));
    }
  }

  /// Layer samples and synthesized child spans of one traced commit.
  void RecordTraced(const park::CommitReport& report, uint32_t commit_span,
                    int64_t t0, Tracer* tracer, Phase* phase) {
    const park::CommitTimings& ct = report.timings;
    const park::PhaseTimings& pt = report.stats.timings;
    AddParkStats(report.stats, &phase->layers);
    phase->layers.Add("eca.evaluate_ms", ct.evaluate_ns / 1e6);
    phase->layers.Add("eca.apply_ms", ct.apply_ns / 1e6);
    phase->layers.Add("eca.journal_ms", ct.journal_ns / 1e6);
    phase->layers.Add("eca.journal_sync_ms", ct.journal_sync_ns / 1e6);
    if (report.stats.gamma_steps > 0) {
      phase->step_us.push_back(ct.evaluate_ns / 1e3 /
                               report.stats.gamma_steps);
    }
    const int64_t eval_end = t0 + static_cast<int64_t>(ct.evaluate_ns);
    uint32_t eval = tracer->Add("evaluate", Layer::kCore, commit_span, t0,
                                eval_end, true);
    const uint64_t gamma_ns = std::min(pt.gamma_ns, ct.evaluate_ns);
    tracer->Add("gamma", Layer::kEngine, eval, t0,
                t0 + static_cast<int64_t>(gamma_ns), true);
  }

  void Query(const CommitStep& step, Tracer* tracer, Phase* phase) {
    const std::string pattern =
        Atom(Pred(step.chain, step.query_level), {step.fact});
    int64_t t0 = NowNs();
    park::Result<park::QueryResult> hits = [&] {
      ScopedSpan span(tracer, "Query", Layer::kStorage,
                      tracer != nullptr ? tracer->NextOp() : 0);
      return park::QueryDatabase(db_->database(), pattern, db_->symbols());
    }();
    int64_t t1 = NowNs();
    if (!hits.ok()) {
      verdict_->Count(1, 1);
      verdict_->Fail("query failed: " + hits.status().ToString());
      return;
    }
    verdict_->Count(1, 0);
    phase->queries.push_back({t0, t1});
    if (tracer != nullptr) {
      phase->layers.Add("storage.query_us", MsBetween(t0, t1) * 1e3);
    }
    if (hits->size() != 1) {
      verdict_->Fail("query " + pattern + " returned " +
                     std::to_string(hits->size()) + " rows, oracle expects 1");
    }
  }

  const RunConfig config_;
  Verdict* verdict_;
  const Sizes sizes_;
  std::string rules_;
  std::string facts_text_;
  size_t initial_atoms_ = 0;
  std::vector<CommitStep> script_;
  std::optional<park::ActiveDatabase> db_;
};

}  // namespace

std::unique_ptr<Workload> MakeKiloruleCommit(const RunConfig& config,
                                             Verdict* verdict) {
  return std::make_unique<KiloruleCommit>(config, verdict);
}

}  // namespace park_bench
