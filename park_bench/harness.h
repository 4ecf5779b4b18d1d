// Shared pieces of the park_bench benchmark: run configuration, timing and
// percentile helpers, per-phase sample collection, and the interface
// every workload implements.
//
// The benchmark measures the engine only through its public API
// (park/park.h, workload/*). Oracles live in the workload files and use
// nothing from the engine except the rendered atoms they compare.

#ifndef PARK_BENCH_HARNESS_H_
#define PARK_BENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "park/park.h"

namespace park_bench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// SplitMix64: a fully specified generator, so a seed names the same
/// inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);

/// Command-line options of one workload run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Traced-only diagnostics (rejected on end-to-end runs): evaluation
  /// threads (0 = leave the engine default) and batch execution.
  int threads = 0;
  bool exec_batch = false;
  /// Tiny sizes for the smoke test; also turns on the durable-recovery
  /// check of payroll_serve.
  bool smoke = false;
  std::string trace_out;  // Chrome trace path (traced runs)
  std::string json_out;   // park-bench-v1 record path (optional)
  std::string work_dir = ".bench_out";  // durable databases, traces
};

/// Oracle verdict and operation accounting, shared by all threads of a
/// run. A mismatch is reported once on stderr and fails the run.
class Verdict {
 public:
  void Fail(const std::string& message);
  void Count(uint64_t attempted, uint64_t failed);
  bool correct() const;
  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Per-operation samples of layer metrics, keyed by metric name. Timings
/// are later reduced to medians and counters to means.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Merge(const LayerSamples& other);
  double MedianOf(const std::string& name) const;
  double MeanOf(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// When one operation ran.
struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class HostProbe;

/// What one measurement phase observed.
struct Phase {
  std::vector<Interval> ops;      // every operation (evaluation or commit)
  std::vector<Interval> queries;  // every query
  std::vector<double> step_us;    // Δ-loop step durations (traced phases)
  LayerSamples layers;
  /// The probe that ran on the queries' thread, when that is not the
  /// thread of the operations and their probe (payroll's reader).
  const HostProbe* query_probe = nullptr;

  void Merge(const Phase& other);
};

/// Durations of `intervals`, in units of `unit_ns`.
std::vector<double> Durations(const std::vector<Interval>& intervals,
                              double unit_ns);

/// On a shared virtual machine (4 vCPUs, 2.1 GHz) evaluation speed was
/// measured to drift by up to a third for seconds at a time, which moves
/// a whole-run tail or rate by more than any useful bound. So end-to-end
/// statistics are taken per block: the intervals, in completion order,
/// are cut into kBlocks blocks, each block's statistic is scaled by the
/// host's slowdown during it, and the median over the blocks is reported,
/// which a slow stretch of the run moves little. Short blocks (half a
/// second or less in a 20-second run) follow the host's changes of speed
/// more closely than long ones. On interval logs of ten runs per workload
/// from a moderately loaded host, 40 blocks instead of 10 narrowed the
/// quartile spread of most end-to-end metrics, e.g. conflict's op p90
/// from 17% to 7%; on logs from a host slowed 1.7x, neither count was
/// steadier overall.
constexpr int kBlocks = 40;

/// `intervals` in completion order, cut into kBlocks blocks (one block
/// when there are fewer intervals than blocks; none when empty).
std::vector<std::vector<Interval>> Blocks(std::vector<Interval> intervals);

/// From the earliest start to the latest end of `block`.
Interval Extent(const std::vector<Interval>& block);

/// Operations per second of busy time: the block's count over the length
/// of the union of its intervals (the summed latencies for one client;
/// the wall time for clients that are always busy).
double Rate(std::vector<Interval> block);

/// Host speed probe. On the shared virtual machine the benchmark was built
/// on, co-tenant load slowed every workload of a run together by up to
/// 2x for minutes at a time, so raw times from runs a few minutes apart
/// differ by more than any useful bound. The probe times a fixed kernel
/// that shares no code with the engine and owns its memory (hash-set
/// inserts and probes in a private arena, the access pattern of the
/// engine's relations), interleaved with the set-ups and with the
/// workload's operations. Times are reported scaled by kReferenceMs / the
/// nearest-rank median kernel time around them (of the runs before and
/// after a burst of set-ups, the faster; of the runs during a block of
/// operations, the median): the time they would have taken at the host
/// speed the reference was measured at. On two sets of ten 20-second runs
/// per workload, this cut the spread of the median operation latency
/// from 9-33% to 3-14%.
///
/// Not thread-safe: one thread at a time calls Tick and Run.
class HostProbe {
 public:
  /// Median kernel time on the reference host (4 vCPUs, Xeon at 2.1 GHz,
  /// quiet).
  static constexpr double kReferenceMs = 7.0;

  HostProbe();

  /// Runs the kernel if kEveryMs have passed since it last ran.
  void Tick();
  /// Runs the kernel once and records its time.
  void Run();
  /// Median time of kernel runs [first, last) over kReferenceMs (> 1: the
  /// host ran slower); 1 when the range is empty.
  double Slowdown(size_t first, size_t last) const;
  /// Slowdown over the runs that started within `extent`, or over the
  /// nearest run when none did.
  double SlowdownDuring(Interval extent) const;
  size_t runs() const { return runs_.size(); }

 private:
  static constexpr double kEveryMs = 250;

  std::vector<std::byte> arena_;
  std::vector<Interval> runs_;
  int64_t last_ns_ = 0;
  uint64_t sink_ = 0;
};

class Tracer;

/// One workload. The harness calls SetUp several times (each a fresh,
/// timed set-up) and then Measure once per phase.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One fresh set-up: parse the input text (generated from the seed when
  /// the workload was made), load it, and bring the state to where
  /// operations start. Replaces the current state. In traced runs
  /// `tracer` and `layers` are non-null.
  virtual void SetUp(Tracer* tracer, LayerSamples* layers) = 0;

  /// Runs operations until `deadline` (at least one round) against the
  /// current state, recording latencies into `phase` and ticking `probe`
  /// between operations. Traced phases pass a tracer and collect the
  /// engine's phase timings.
  virtual void Measure(Clock::time_point deadline, Tracer* tracer,
                       HostProbe* probe, Phase* phase) = 0;

  /// Extra traced-only phases (payroll's single-writer publish phase).
  virtual void MeasureExtra(Tracer* tracer, LayerSamples* layers) {
    (void)tracer;
    (void)layers;
  }
};

/// Engine options for a phase: the defaults, timings in traced phases,
/// and the diagnostics (which only traced runs accept) in both phases of
/// a traced run. `policy` and `maintenance_mode` are set by the
/// workloads themselves.
park::ParkOptions BaseOptions(const RunConfig& config, bool traced);

std::unique_ptr<Workload> MakeClosureEval(const RunConfig& config,
                                          Verdict* verdict);
std::unique_ptr<Workload> MakeConflictEval(const RunConfig& config,
                                           Verdict* verdict);
std::unique_ptr<Workload> MakeKiloruleCommit(const RunConfig& config,
                                             Verdict* verdict);
std::unique_ptr<Workload> MakePayrollServe(const RunConfig& config,
                                           Verdict* verdict);

/// Rendering used by the oracles: "pred(a, b)", as Database prints atoms.
std::string Atom(const std::string& predicate,
                 const std::vector<std::string>& args);

/// Records the per-evaluation layer samples every workload reports from
/// ParkStats (timings are only non-zero in traced phases).
void AddParkStats(const park::ParkStats& stats, LayerSamples* layers);

/// The storage share of loading facts: milliseconds to insert every atom
/// of `db` into a fresh database, with no parsing.
double TimeReload(const park::Database& db, Tracer* tracer);

}  // namespace park_bench

#endif  // PARK_BENCH_HARNESS_H_
