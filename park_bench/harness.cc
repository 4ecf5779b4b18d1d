#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory_resource>
#include <unordered_set>

#include "trace.h"

namespace park_bench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  if (rank == 0) rank = 1;
  return samples[std::min(rank, samples.size()) - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double v : samples) sum += v;
  return sum / samples.size();
}

void Verdict::Fail(const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (correct_) std::fprintf(stderr, "park_bench: ORACLE MISMATCH: %s\n",
                             message.c_str());
  correct_ = false;
}

void Verdict::Count(uint64_t attempted, uint64_t failed) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += attempted;
  failed_ += failed;
}

bool Verdict::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return correct_;
}

uint64_t Verdict::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

uint64_t Verdict::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

void LayerSamples::Merge(const LayerSamples& other) {
  for (const auto& [name, values] : other.samples_) {
    auto& mine = samples_[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

double LayerSamples::MedianOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Median(it->second);
}

double LayerSamples::MeanOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : Mean(it->second);
}

void Phase::Merge(const Phase& other) {
  ops.insert(ops.end(), other.ops.begin(), other.ops.end());
  queries.insert(queries.end(), other.queries.begin(), other.queries.end());
  step_us.insert(step_us.end(), other.step_us.begin(), other.step_us.end());
  layers.Merge(other.layers);
}

std::vector<double> Durations(const std::vector<Interval>& intervals,
                              double unit_ns) {
  std::vector<double> out;
  out.reserve(intervals.size());
  for (const Interval& i : intervals) {
    out.push_back(static_cast<double>(i.end_ns - i.start_ns) / unit_ns);
  }
  return out;
}

std::vector<std::vector<Interval>> Blocks(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.end_ns < b.end_ns;
            });
  const size_t n = intervals.size();
  const size_t blocks = n < static_cast<size_t>(kBlocks) ? 1 : kBlocks;
  std::vector<std::vector<Interval>> out;
  for (size_t b = 0; n > 0 && b < blocks; ++b) {
    out.emplace_back(intervals.begin() + b * n / blocks,
                     intervals.begin() + (b + 1) * n / blocks);
  }
  return out;
}

Interval Extent(const std::vector<Interval>& block) {
  Interval extent{INT64_MAX, INT64_MIN};
  for (const Interval& i : block) {
    extent.start_ns = std::min(extent.start_ns, i.start_ns);
    extent.end_ns = std::max(extent.end_ns, i.end_ns);
  }
  return extent;
}

double Rate(std::vector<Interval> block) {
  if (block.empty()) return 0;
  std::sort(block.begin(), block.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  int64_t busy = 0, lo = block[0].start_ns, hi = block[0].end_ns;
  for (const Interval& i : block) {
    if (i.start_ns > hi) {
      busy += hi - lo;
      lo = i.start_ns;
    }
    hi = std::max(hi, i.end_ns);
  }
  busy += hi - lo;
  return busy > 0 ? block.size() * 1e9 / busy : 0.0;
}

namespace {

/// The kernel's arena: 200,000 set nodes and their buckets fit with room
/// to spare.
constexpr size_t kArenaBytes = 16 << 20;

}  // namespace

HostProbe::HostProbe() : arena_(kArenaBytes, std::byte{1}) {}

void HostProbe::Tick() {
  if (MsBetween(last_ns_, NowNs()) >= kEveryMs) Run();
}

void HostProbe::Run() {
  const int64_t t0 = NowNs();
  {
    std::pmr::monotonic_buffer_resource arena(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::unordered_set<uint64_t> set(&arena);
    for (uint64_t i = 0; i < 200000; ++i) set.insert(i * 2654435761ULL);
    for (uint64_t i = 0; i < 400000; ++i) sink_ += set.count(i * 40503ULL);
  }
  last_ns_ = NowNs();
  runs_.push_back({t0, last_ns_});
}

double HostProbe::Slowdown(size_t first, size_t last) const {
  last = std::min(last, runs_.size());
  if (first >= last) return 1.0;
  return Median(Durations({runs_.begin() + first, runs_.begin() + last},
                          1e6)) /
         kReferenceMs;
}

double HostProbe::SlowdownDuring(Interval extent) const {
  // Runs are recorded in start order.
  auto first = std::lower_bound(
      runs_.begin(), runs_.end(), extent.start_ns,
      [](const Interval& run, int64_t t) { return run.start_ns < t; });
  auto last = std::upper_bound(
      first, runs_.end(), extent.end_ns,
      [](int64_t t, const Interval& run) { return t < run.start_ns; });
  if (first == last) {
    // None started inside: the nearest run before or after.
    if (last != runs_.end() &&
        (first == runs_.begin() || last->start_ns - extent.end_ns <
                                       extent.start_ns - (first - 1)->end_ns)) {
      ++last;
    } else if (first != runs_.begin()) {
      --first;
    }
  }
  return Slowdown(first - runs_.begin(), last - runs_.begin());
}

park::ParkOptions BaseOptions(const RunConfig& config, bool traced) {
  park::ParkOptions options;
  options.collect_timings = traced;
  if (config.threads > 0) options.num_threads = config.threads;
  if (config.exec_batch) options.exec_mode = park::ExecMode::kBatch;
  return options;
}

std::string Atom(const std::string& predicate,
                 const std::vector<std::string>& args) {
  std::string out = predicate;
  if (args.empty()) return out;
  out += '(';
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i];
  }
  out += ')';
  return out;
}

void AddParkStats(const park::ParkStats& stats, LayerSamples* layers) {
  const park::PhaseTimings& t = stats.timings;
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  layers->Add("engine.gamma_ms", ms(t.gamma_ns));
  layers->Add("engine.rule_evaluations", stats.rule_evaluations);
  if (stats.planner_estimated_rows > 0) {
    layers->Add("engine.planner_row_ratio",
                static_cast<double>(stats.planner_actual_rows) /
                    stats.planner_estimated_rows);
  }
  layers->Add("engine.plan_cache_hits", stats.plan_cache_hits);
  layers->Add("engine.plans_compiled", stats.plans_compiled);
  layers->Add("engine.sched_rules_considered", stats.sched_rules_considered);
  layers->Add("engine.sched_rules_skipped", stats.sched_rules_skipped);
  layers->Add("engine.parallel_match_ms", ms(t.parallel_match_ns));
  layers->Add("engine.parallel_merge_ms", ms(t.parallel_merge_ns));
  layers->Add("engine.pool_busy_ms", ms(t.pool_busy_ns));
  layers->Add("engine.parallel_sections", stats.parallel_sections);
  layers->Add("engine.parallel_tasks", stats.parallel_tasks);
  layers->Add("core.apply_ms", ms(t.apply_ns));
  layers->Add("core.conflict_ms", ms(t.conflict_ns));
  layers->Add("core.policy_ms", ms(t.policy_ns));
  const uint64_t inner = t.gamma_ns + t.apply_ns + t.conflict_ns;
  layers->Add("core.loop_other_ms",
              t.total_ns > inner ? ms(t.total_ns - inner) : 0.0);
  layers->Add("core.restarts", stats.restarts);
  layers->Add("core.conflicts_resolved", stats.conflicts_resolved);
  layers->Add("core.gamma_steps", stats.gamma_steps);
  layers->Add("core.maint_ratio", stats.maint_commits);
  layers->Add("core.maint_atoms_rederived", stats.maint_atoms_rederived);
  layers->Add("core.maint_cone_rules", stats.maint_cone_rules);
  layers->Add("storage.compactions", stats.storage_compactions);
  layers->Add("storage.segment_rows", stats.storage_segment_rows);
}

double TimeReload(const park::Database& db, Tracer* tracer) {
  std::vector<park::GroundAtom> atoms;
  db.ForEach([&](const park::GroundAtom& a) { atoms.push_back(a); });
  park::Database fresh(db.symbols());
  int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "Insert", Layer::kStorage);
    for (const park::GroundAtom& a : atoms) fresh.Insert(a);
  }
  return MsBetween(t0, NowNs());
}

}  // namespace park_bench
