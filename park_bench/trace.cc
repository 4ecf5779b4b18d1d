#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "harness.h"

namespace park_bench {
namespace {

std::atomic<uint32_t> g_next_tid{0};
thread_local uint32_t t_tid = 0;
/// Open spans of the calling thread, innermost last.
thread_local std::vector<uint32_t> t_open;

uint32_t ThreadNumber() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1) + 1;
  return t_tid;
}

/// BenchObserver's per-thread run state.
struct ObserverState {
  uint32_t pipeline = 0;
  uint32_t run = 0;
  uint32_t step = 0;
  int64_t step_start_ns = 0;
  int64_t mark_ns = 0;  // end of the last child span inside the step
  bool journal = false;
  uint32_t journal_pipeline = 0;
  int64_t journal_end_ns = 0;
};
thread_local ObserverState t_obs;

bool IsStepLevel(const char* name) {
  return std::strcmp(name, "step") == 0 || std::strcmp(name, "gamma") == 0 ||
         std::strcmp(name, "conflicts") == 0 ||
         std::strcmp(name, "restart") == 0;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kLang: return "lang";
    case Layer::kStorage: return "storage";
    case Layer::kEngine: return "engine";
    case Layer::kCore: return "core";
    case Layer::kEca: return "eca";
    case Layer::kServe: return "serve";
  }
  return "?";
}

uint32_t Tracer::Open(const char* name, Layer layer, uint64_t op) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.tid = ThreadNumber();
  span.start_ns = NowNs();
  span.parent = t_open.empty() ? 0 : t_open.back();
  std::lock_guard<std::mutex> lock(mutex_);
  if (op == 0 && span.parent != 0) op = spans_[span.parent - 1].op;
  span.op = op;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(span);
  t_open.push_back(span.id);
  return span.id;
}

void Tracer::Close(uint32_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  while (!t_open.empty()) {
    uint32_t top = t_open.back();
    t_open.pop_back();
    if (spans_[top - 1].end_ns < 0) spans_[top - 1].end_ns = now;
    if (top == id) break;
  }
}

uint32_t Tracer::Add(const char* name, Layer layer, uint32_t parent,
                     int64_t start_ns, int64_t end_ns, bool synthesized) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.synthesized = synthesized;
  span.tid = ThreadNumber();
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(mutex_);
  span.op = parent != 0 ? spans_[parent - 1].op : 0;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  spans_.push_back(span);
  return span.id;
}

uint32_t Tracer::Current() const { return t_open.empty() ? 0 : t_open.back(); }

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void BenchObserver::OnRunStart(const park::RunStartInfo&) {
  t_obs.run = tracer_->Open("evaluate", Layer::kCore);
}

void BenchObserver::OnStepStart(int) {
  CloseStep(NowNs());
  t_obs.step = tracer_->Open("step", Layer::kCore);
  // Read after Open, so child spans start inside the step span.
  t_obs.step_start_ns = NowNs();
  t_obs.mark_ns = t_obs.step_start_ns;
}

void BenchObserver::OnGammaSection(const park::GammaSectionInfo&) {
  if (t_obs.step == 0) return;
  const int64_t now = NowNs();
  tracer_->Add("gamma", Layer::kEngine, t_obs.step, t_obs.mark_ns, now,
               false);
  t_obs.mark_ns = now;
}

void BenchObserver::OnConflictRound(const park::ConflictRoundInfo&) {
  if (t_obs.step == 0) return;
  const int64_t now = NowNs();
  tracer_->Add("conflicts", Layer::kCore, t_obs.step, t_obs.mark_ns, now,
               false);
  t_obs.mark_ns = now;
}

void BenchObserver::OnRestart(size_t) {
  const int64_t now = NowNs();
  tracer_->Add("restart", Layer::kCore, tracer_->Current(), now, now, false);
}

void BenchObserver::OnFixpoint(int) { CloseStep(NowNs()); }

void BenchObserver::OnRunEnd(const park::ParkStats&) {
  CloseStep(NowNs());
  if (t_obs.run != 0) tracer_->Close(t_obs.run);
  t_obs.run = 0;
}

void BenchObserver::OnCommitStart(size_t) {
  t_obs.pipeline = tracer_->Open("pipeline", Layer::kEca);
}

void BenchObserver::OnCommitEnd(const park::CommitEndInfo&) {
  if (t_obs.pipeline != 0) tracer_->Close(t_obs.pipeline);
  t_obs.pipeline = 0;
}

void BenchObserver::OnJournalAppend(uint64_t) {
  t_obs.journal = true;
  t_obs.journal_pipeline = t_obs.pipeline;
  t_obs.journal_end_ns = NowNs();
}

void BenchObserver::OnBatchCommit(const park::BatchCommitInfo&) {
  const int64_t now = NowNs();
  tracer_->Add("batch", Layer::kServe, tracer_->Current(), now, now, false);
}

void BenchObserver::CloseStep(int64_t now) {
  if (t_obs.step == 0) return;
  {
    std::lock_guard<std::mutex> lock(steps_mutex_);
    step_us_.push_back(static_cast<double>(now - t_obs.step_start_ns) / 1e3);
  }
  tracer_->Close(t_obs.step);
  t_obs.step = 0;
}

std::vector<double> BenchObserver::TakeStepUs() {
  std::lock_guard<std::mutex> lock(steps_mutex_);
  std::vector<double> out;
  out.swap(step_us_);
  return out;
}

bool BenchObserver::TakeJournalAppend(uint32_t* pipeline_span,
                                      int64_t* end_ns) {
  if (!t_obs.journal) return false;
  t_obs.journal = false;
  *pipeline_span = t_obs.journal_pipeline;
  *end_ns = t_obs.journal_end_ns;
  return true;
}

std::map<std::string, SelfTime> SelfTimeByRoot(
    const std::vector<Span>& spans) {
  std::vector<std::vector<uint32_t>> children(spans.size() + 1);
  // A parent is recorded before its children, so one pass finds roots.
  std::vector<uint32_t> root(spans.size() + 1, 0);
  for (const Span& s : spans) {
    root[s.id] = s.parent == 0 ? s.id : root[s.parent];
    if (s.parent != 0 && s.end_ns >= 0) children[s.parent].push_back(s.id);
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& s : spans) {
    if (s.op == 0 || s.end_ns < s.start_ns) continue;
    SelfTime& self = out[spans[root[s.id] - 1].name];
    if (s.parent == 0) ++self.roots;
    covered.clear();
    for (uint32_t c : children[s.id]) {
      const Span& child = spans[c - 1];
      int64_t lo = std::max(child.start_ns, s.start_ns);
      int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t busy = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) busy += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) busy += run_hi - run_lo;
    self.ns[static_cast<int>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - busy);
  }
  return out;
}

size_t CountNestingViolations(const std::vector<Span>& spans) {
  size_t violations = 0;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const Span& p = spans[s.parent - 1];
    if (s.end_ns < 0 || p.end_ns < 0 || s.start_ns < p.start_ns ||
        s.end_ns > p.end_ns) {
      ++violations;
    }
  }
  return violations;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<std::vector<Span>>& phases,
                      const std::vector<std::string>& phase_names,
                      size_t max_spans) {
  size_t step_level = 0, total = 0;
  int64_t origin = INT64_MAX;
  for (const auto& spans : phases) {
    for (const Span& s : spans) {
      ++total;
      if (IsStepLevel(s.name)) ++step_level;
      origin = std::min(origin, s.start_ns);
    }
  }
  const size_t budget = max_spans > total - step_level
                            ? max_spans - (total - step_level)
                            : 1;
  const uint64_t every =
      step_level <= budget ? 1 : (step_level + budget - 1) / budget;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "park_bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"stepSpansEvery\":%llu,"
                  "\"traceEvents\":[",
               static_cast<unsigned long long>(every));
  bool first = true;
  for (size_t p = 0; p < phases.size(); ++p) {
    std::fprintf(f,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", p + 1, phase_names[p].c_str());
    first = false;
    for (const Span& s : phases[p]) {
      if (s.end_ns < 0) continue;
      if (IsStepLevel(s.name) && s.op % every != 0) continue;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":%zu,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"op\":%llu,"
                   "\"synthesized\":%s}}",
                   s.name, LayerName(s.layer), p + 1, s.tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, static_cast<unsigned long long>(s.op),
                   s.synthesized ? "true" : "false");
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace park_bench
