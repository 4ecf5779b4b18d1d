// In-memory span tracing for traced park_bench runs.
//
// Spans come from three places, all in the benchmark's own files:
//   - ScopedSpan around each public call the benchmark makes (parse,
//     LoadFacts, Stabilize, Park, Commit, Snapshot, Query, ...);
//   - BenchObserver, a RunObserver that turns the engine's step, Γ
//     section, conflict round, restart, commit-pipeline, journal and
//     batch events into child spans;
//   - spans synthesized from the reports a call returns (CommitTimings,
//     PhaseTimings) where no observer may be installed — an observer
//     forces incremental maintenance onto the full evaluator.
// Spans are kept in memory and written at exit as Chrome trace-event
// JSON; SelfTimeByLayer turns them into the per-layer self-time table.

#ifndef PARK_BENCH_TRACE_H_
#define PARK_BENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "park/park.h"

namespace park_bench {

/// The modules under src/, which name the layers.
enum class Layer : uint8_t { kLang, kStorage, kEngine, kCore, kEca, kServe };
constexpr int kNumLayers = 6;
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kCore;
  bool synthesized = false;
  uint32_t id = 0;      // 1-based index into the tracer's spans
  uint32_t parent = 0;  // 0: a root span
  uint32_t tid = 0;     // bench-assigned thread number
  uint64_t op = 0;      // operation the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
};

/// Thread-safe span store. Each thread keeps its own stack of open
/// spans, so a span opened on a thread becomes the parent of the spans
/// that thread opens next.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh operation id.
  uint64_t NextOp() { return next_op_.fetch_add(1) + 1; }

  /// Opens a span under the calling thread's innermost open span. `op`
  /// 0 inherits the parent's operation.
  uint32_t Open(const char* name, Layer layer, uint64_t op = 0);
  /// Closes `id` and any span opened after it on this thread.
  void Close(uint32_t id);
  /// Records an already finished span under `parent`; returns its id.
  uint32_t Add(const char* name, Layer layer, uint32_t parent,
               int64_t start_ns, int64_t end_ns, bool synthesized);
  /// Innermost open span of the calling thread (0 if none).
  uint32_t Current() const;

  std::vector<Span> Spans() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_op_{0};
};

/// Opens a span for its scope; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Layer layer, uint64_t op = 0)
      : tracer_(tracer),
        id_(tracer == nullptr ? 0 : tracer->Open(name, layer, op)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Turns engine events into child spans of the calling thread's open
/// span. Events fire on the evaluating thread (a Session batch leader
/// for group commits), so all per-run state is thread-local.
class BenchObserver : public park::RunObserver {
 public:
  explicit BenchObserver(Tracer* tracer) : tracer_(tracer) {}

  void OnRunStart(const park::RunStartInfo& info) override;
  void OnStepStart(int step) override;
  void OnGammaSection(const park::GammaSectionInfo& info) override;
  void OnConflictRound(const park::ConflictRoundInfo& info) override;
  void OnRestart(size_t restart) override;
  void OnFixpoint(int step) override;
  void OnRunEnd(const park::ParkStats& stats) override;
  void OnCommitStart(size_t updates) override;
  void OnCommitEnd(const park::CommitEndInfo& info) override;
  void OnJournalAppend(uint64_t seq) override;
  void OnBatchCommit(const park::BatchCommitInfo& info) override;

  /// Step durations (µs) seen on any thread since the last call.
  std::vector<double> TakeStepUs();

  /// If this thread ran a commit pipeline since the last call, returns
  /// true with the pipeline span and the time the journal append ended.
  static bool TakeJournalAppend(uint32_t* pipeline_span, int64_t* end_ns);

 private:
  void CloseStep(int64_t now);

  Tracer* tracer_;
  std::mutex steps_mutex_;
  std::vector<double> step_us_;  // guarded by steps_mutex_
};

/// Self time of the spans under one kind of root span (Park, Commit,
/// Query, Snapshot, ...): each span's duration minus the part of it its
/// children cover, summed by the span's layer.
struct SelfTime {
  size_t roots = 0;
  std::array<double, kNumLayers> ns{};
};

/// Self time by root span name. Spans outside any operation (op 0:
/// set-ups, diagnostics) are skipped.
std::map<std::string, SelfTime> SelfTimeByRoot(const std::vector<Span>& spans);

/// Checks that every closed child lies within its parent's interval;
/// returns the number of violations.
size_t CountNestingViolations(const std::vector<Span>& spans);

/// Writes Chrome trace-event JSON: one process per phase (`phases[i]`
/// named `phase_names[i]`). Step-level spans (below depth 2) are kept for
/// one operation in N so the file stays under `max_spans` events.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<Span>>& phases,
                      const std::vector<std::string>& phase_names,
                      size_t max_spans);

}  // namespace park_bench

#endif  // PARK_BENCH_TRACE_H_
