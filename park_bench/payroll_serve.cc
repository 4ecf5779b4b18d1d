// payroll_serve: a durable Session (fsync journal, default group size)
// over the paper's payroll program with 8,192 employees (~23.7k facts).
// Two writer threads commit in a closed loop, alternating an onboarding
// (+emp, which the rules extend with +active) and a deactivation
// (-active, which cascades to -payroll and then +audit); one reader
// thread takes a snapshot and runs a point query in a closed loop until
// the writers finish. The writers take their steps from one shared
// script, so both stay busy until its last step: a round never ends with
// one writer committing alone, at half the rate. It is the only workload
// with a journal, fsync, group commit, snapshot publication, and reads
// beside writes. The program is statically ineligible for maintenance, so
// every commit runs the full PARK(D, P, U). The seed picks salaries, who
// starts inactive, whom the script deactivates, and which employees the
// reader asks for.
//
// Commits are scaled by a host probe that runs on writer 0's thread, and
// queries by a second one on the reader's: under heavy load the host
// slowed this process's threads unevenly, and with one probe on the
// reader the quartiles of op_p50_ms over runs of the same code lay up to
// 26% of the median apart.
//
// The traced-only `--threads` diagnostic runs one writer and no reader,
// so the writer plus the pool's workers stay within the host's CPUs.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "harness.h"
#include "trace.h"

namespace park_bench {
namespace {

constexpr char kRules[] =
    "cleanup: emp(X), !active(X), payroll(X, S) -> -payroll(X, S).\n"
    "cascade: -payroll(X, S) -> +audit(X).\n"
    "onboard: +emp(X) -> +active(X).\n";

struct Sizes {
  int employees;
  int commits;          // per round, shared by the writers
  int publish_commits;  // traced single-writer phase
};

constexpr Sizes kFull{8192, 400, 100};
constexpr Sizes kSmoke{256, 24, 6};

struct Step {
  bool onboard = false;
  std::string name;  // onboarded employee
  int employee = 0;  // deactivated employee
};

std::string Employee(int i) { return "e" + std::to_string(i); }

class PayrollServe : public Workload {
 public:
  PayrollServe(const RunConfig& config, Verdict* verdict)
      : config_(config),
        verdict_(verdict),
        sizes_(config.smoke ? kSmoke : kFull),
        writers_(config.threads > 0 ? 1 : 2),
        reader_(config.threads == 0),
        dir_(config.work_dir + "/payroll_" + std::to_string(::getpid())) {
    Rng rng(config.seed * 0x94d049bb133111ebULL + 4);
    std::vector<std::string> facts;
    std::vector<int> active;
    for (int i = 0; i < sizes_.employees; ++i) {
      salary_.push_back(30000 + static_cast<int64_t>(rng.Below(170001)));
      initially_active_.push_back(rng.Below(10) != 0);
      facts.push_back(Atom("emp", {Employee(i)}) + ".\n");
      facts.push_back(
          Atom("payroll", {Employee(i), std::to_string(salary_[i])}) + ".\n");
      if (initially_active_[i]) {
        facts.push_back(Atom("active", {Employee(i)}) + ".\n");
        active.push_back(i);
      }
    }
    rng.Shuffle(facts);
    for (const std::string& f : facts) facts_text_ += f;

    rng.Shuffle(active);
    size_t next_target = 0;
    for (int i = 0; i < sizes_.commits; ++i) {
      Step step;
      step.onboard = i % 2 == 0;
      if (step.onboard) {
        step.name = "n" + std::to_string(i);
      } else {
        PARK_CHECK_LT(next_target, active.size());
        step.employee = active[next_target++];
      }
      script_.push_back(std::move(step));
    }
    for (int i = 0; i < 256; ++i) {
      queries_.push_back(static_cast<int>(rng.Below(sizes_.employees)));
    }
  }

  ~PayrollServe() override {
    session_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  void SetUp(Tracer* tracer, LayerSamples* layers) override {
    Prepare(tracer != nullptr, nullptr, tracer, layers);
  }

  void Measure(Clock::time_point deadline, Tracer* tracer, HostProbe* probe,
               Phase* phase) override {
    phase->query_probe = &reader_probe_;
    do {
      std::optional<BenchObserver> observer;
      if (tracer != nullptr) observer.emplace(tracer);
      Prepare(tracer != nullptr, observer ? &*observer : nullptr, nullptr,
              nullptr);
      if (observer) observer->TakeStepUs();  // drop Stabilize's steps
      RunRound(script_, writers_, reader_, probe, "serve.queue_publish_ms",
               tracer, phase);
      if (observer) {
        std::vector<double> steps = observer->TakeStepUs();
        phase->step_us.insert(phase->step_us.end(), steps.begin(),
                              steps.end());
      }
      session_.reset();
    } while (Clock::now() < deadline);
  }

  /// One writer, no reader, a short script: the residual of client
  /// latency over the commit pipeline is then publication alone.
  void MeasureExtra(Tracer* tracer, LayerSamples* layers) override {
    const std::vector<Step> script(
        script_.begin(), script_.begin() + sizes_.publish_commits);
    BenchObserver observer(tracer);
    Prepare(true, &observer, nullptr, nullptr);
    Phase phase;
    RunRound(script, 1, false, nullptr, "serve.publish_ms", tracer, &phase);
    session_.reset();
    layers->Add("serve.publish_ms", phase.layers.MedianOf("serve.publish_ms"));
  }

 private:
  /// Opens a fresh durable session, bulk-loads the facts, stabilizes and
  /// checkpoints it (so the loaded facts are durable too).
  void Prepare(bool traced, BenchObserver* observer, Tracer* tracer,
               LayerSamples* layers) {
    session_.reset();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(config_.work_dir);
    park::Session::Params params;
    params.rules = kRules;
    params.options = BaseOptions(config_, traced);
    params.options.observer = observer;
    {
      ScopedSpan span(tracer, "Open", Layer::kEca);
      auto session = park::Session::Open(dir_, std::move(params));
      PARK_CHECK(session.ok()) << session.status().ToString();
      session_ = std::move(session).value();
    }
    int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "LoadFacts", Layer::kLang);
      park::Status s = session_->LoadFacts(facts_text_);
      PARK_CHECK(s.ok()) << s.ToString();
    }
    int64_t t1 = NowNs();
    {
      ScopedSpan span(tracer, "Stabilize", Layer::kEca);
      park::CommitResult stable = session_->Stabilize();
      PARK_CHECK(stable.ok()) << stable.status().ToString();
    }
    {
      ScopedSpan span(tracer, "Checkpoint", Layer::kEca);
      park::Status s = session_->Checkpoint();
      PARK_CHECK(s.ok()) << s.ToString();
    }
    if (layers == nullptr) return;
    // Session::LoadFacts parses, inserts and republishes the snapshot;
    // the parse of the rule text and the bare insert are timed apart.
    layers->Add("lang.parse_facts_ms", MsBetween(t0, t1));
    auto symbols = park::MakeSymbolTable();
    int64_t t2 = NowNs();
    {
      ScopedSpan span(tracer, "ParseProgram", Layer::kLang);
      PARK_CHECK(park::ParseProgram(kRules, symbols).ok());
    }
    layers->Add("lang.parse_rules_ms", MsBetween(t2, NowNs()));
    auto db = park::ParseDatabase(facts_text_, symbols);
    PARK_CHECK(db.ok()) << db.status().ToString();
    layers->Add("storage.load_facts_ms", TimeReload(*db, tracer));
  }

  /// Runs `script` against the current session from `writers` threads
  /// (writer 0 on the calling thread, ticking `probe`), each taking the
  /// next step not yet taken, optionally beside a reader that ticks
  /// reader_probe_; then checks the final and (in smoke runs) the
  /// recovered state. Every step touches its own employee, so the final
  /// state does not depend on which writer took which step.
  void RunRound(const std::vector<Step>& script, int writers, bool reader,
                HostProbe* probe, const char* residual_metric,
                Tracer* tracer, Phase* phase) {
    std::vector<char> deactivated(sizes_.employees, 0);
    std::vector<std::string> onboarded;
    for (const Step& step : script) {
      if (step.onboard) {
        onboarded.push_back(step.name);
      } else {
        deactivated[step.employee] = 1;
      }
    }

    std::vector<Phase> local(writers + 1);
    std::atomic<bool> go{false};
    std::atomic<size_t> next_step{0};
    std::atomic<int> writers_left{writers};
    auto write = [&](int w) {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = next_step.fetch_add(1, std::memory_order_relaxed);
           i < script.size();
           i = next_step.fetch_add(1, std::memory_order_relaxed)) {
        Commit(script[i], residual_metric, tracer, &local[w]);
        if (w == 0 && probe != nullptr) probe->Tick();
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    };
    auto read = [&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      size_t next = 0;
      while (writers_left.load(std::memory_order_acquire) > 0) {
        int k = queries_[next++ % queries_.size()];
        Read(k, deactivated[k] != 0, tracer, &local[writers]);
        reader_probe_.Tick();
      }
    };

    std::vector<std::thread> threads;
    for (int w = 1; w < writers; ++w) threads.emplace_back(write, w);
    if (reader) threads.emplace_back(read);
    go.store(true, std::memory_order_release);
    write(0);
    for (std::thread& t : threads) t.join();

    for (const Phase& p : local) phase->Merge(p);
    if (tracer != nullptr) {
      park::ParkStats::ServingCounters counters = session_->serving_stats();
      if (counters.batches > 0) {
        phase->layers.Add("serve.mean_batch_size",
                          static_cast<double>(counters.batched_txns) /
                              counters.batches);
      }
    }

    const std::vector<std::string> expected = Expected(onboarded, deactivated);
    if (session_->Snapshot().SortedAtomStrings() != expected) {
      verdict_->Fail("final payroll snapshot differs from the oracle");
    }
    if (config_.smoke) {
      // Durability: the journal plus checkpoint must recover exactly the
      // state the last snapshot showed.
      session_.reset();
      park::ActiveDatabase::OpenParams params;
      params.rules = kRules;
      auto recovered = park::ActiveDatabase::Open(dir_, std::move(params));
      if (!recovered.ok()) {
        verdict_->Fail("reopen failed: " + recovered.status().ToString());
      } else if (recovered->database().SortedAtomStrings() != expected) {
        verdict_->Fail("recovered payroll state differs from the oracle");
      }
    }
  }

  void Commit(const Step& step, const char* residual_metric, Tracer* tracer,
              Phase* phase) {
    park::Transaction tx = session_->Begin();
    if (step.onboard) {
      tx.Insert("emp", {step.name});
    } else {
      tx.Delete("active", {Employee(step.employee)});
    }
    int64_t t0 = 0, t1 = 0;
    std::optional<park::CommitResult> result;
    {
      ScopedSpan span(tracer, "Commit", Layer::kServe,
                      tracer != nullptr ? tracer->NextOp() : 0);
      t0 = NowNs();
      result.emplace(std::move(tx).Commit());
      t1 = NowNs();
    }
    if (!result->ok()) {
      verdict_->Count(1, 1);
      verdict_->Fail("commit failed: " + result->status().ToString());
      return;
    }
    verdict_->Count(1, 0);
    phase->ops.push_back({t0, t1});
    if (tracer == nullptr) return;

    const park::CommitReport& report = **result;
    const park::CommitTimings& ct = report.timings;
    AddParkStats(report.stats, &phase->layers);
    phase->layers.Add("eca.evaluate_ms", ct.evaluate_ns / 1e6);
    phase->layers.Add("eca.apply_ms", ct.apply_ns / 1e6);
    phase->layers.Add("eca.journal_ms", ct.journal_ns / 1e6);
    phase->layers.Add("eca.journal_sync_ms", ct.journal_sync_ns / 1e6);
    const int64_t residual = (t1 - t0) - static_cast<int64_t>(ct.total_ns);
    phase->layers.Add(residual_metric, residual > 0 ? residual / 1e6 : 0.0);
    // The thread that led the batch saw the journal event; hang the
    // journal and fsync spans off its pipeline span.
    uint32_t pipeline = 0;
    int64_t appended = 0;
    if (BenchObserver::TakeJournalAppend(&pipeline, &appended) &&
        pipeline != 0) {
      uint32_t journal = tracer->Add(
          "journal", Layer::kEca, pipeline,
          appended - static_cast<int64_t>(ct.journal_ns), appended, true);
      tracer->Add("fsync", Layer::kEca, journal,
                  appended - static_cast<int64_t>(ct.journal_sync_ns),
                  appended, true);
    }
  }

  void Read(int k, bool deactivated_this_round, Tracer* tracer,
            Phase* phase) {
    const std::string pattern = "payroll(" + Employee(k) + ", S)";
    const uint64_t op = tracer != nullptr ? tracer->NextOp() : 0;
    int64_t t0 = NowNs();
    std::optional<park::Snapshot> snapshot;
    {
      ScopedSpan span(tracer, "Snapshot", Layer::kServe, op);
      snapshot.emplace(session_->Snapshot());
    }
    int64_t t1 = NowNs();
    park::Result<park::QueryResult> hits = [&] {
      ScopedSpan span(tracer, "Query", Layer::kStorage, op);
      return snapshot->Query(pattern);
    }();
    int64_t t2 = NowNs();
    snapshot.reset();
    if (!hits.ok()) {
      verdict_->Count(1, 1);
      verdict_->Fail("query failed: " + hits.status().ToString());
      return;
    }
    verdict_->Count(1, 0);
    phase->queries.push_back({t0, t2});
    if (tracer != nullptr) {
      phase->layers.Add("serve.snapshot_pin_us", MsBetween(t0, t1) * 1e3);
      phase->layers.Add("storage.query_us", MsBetween(t1, t2) * 1e3);
    }
    // Oracle: an employee active from the start and not deactivated in
    // this round always has its payroll row; one inactive from the start
    // never has it; a deactivated one may or may not, depending on when
    // the snapshot was taken. A row present carries the loaded salary.
    const bool may_be_absent = !initially_active_[k] || deactivated_this_round;
    const bool may_be_present = initially_active_[k];
    const size_t rows = hits->size();
    if (rows > 1 || (rows == 0 && !may_be_absent) ||
        (rows == 1 && (!may_be_present ||
                       hits->bindings[0][0].int_value() != salary_[k]))) {
      verdict_->Fail("query " + pattern + " returned " +
                     std::to_string(rows) + " rows against the oracle");
    }
  }

  /// The final state by set arithmetic over the script.
  std::vector<std::string> Expected(const std::vector<std::string>& onboarded,
                                    const std::vector<char>& deactivated) {
    std::vector<std::string> out;
    for (int i = 0; i < sizes_.employees; ++i) {
      out.push_back(Atom("emp", {Employee(i)}));
      if (initially_active_[i] && !deactivated[i]) {
        out.push_back(Atom("active", {Employee(i)}));
        out.push_back(
            Atom("payroll", {Employee(i), std::to_string(salary_[i])}));
      } else {
        out.push_back(Atom("audit", {Employee(i)}));
      }
    }
    for (const std::string& name : onboarded) {
      out.push_back(Atom("emp", {name}));
      out.push_back(Atom("active", {name}));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  const RunConfig config_;
  Verdict* verdict_;
  const Sizes sizes_;
  const int writers_;
  const bool reader_;
  const std::string dir_;
  std::vector<int64_t> salary_;
  std::vector<bool> initially_active_;
  std::string facts_text_;
  std::vector<Step> script_;
  std::vector<int> queries_;
  HostProbe reader_probe_;
  std::unique_ptr<park::Session> session_;
};

}  // namespace

std::unique_ptr<Workload> MakePayrollServe(const RunConfig& config,
                                           Verdict* verdict) {
  return std::make_unique<PayrollServe>(config, verdict);
}

}  // namespace park_bench
