// park_bench: one workload per process, end-to-end metrics with tracing
// off, or (--trace 1) the per-layer breakdown from a traced phase that
// follows an untraced one.
//
//   park_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//              [--threads N] [--exec tuple|batch]   (traced runs only)
//              [--trace-out FILE] [--json FILE] [--work-dir DIR] [--smoke]
//
// Prints `workload metric value unit` for every metric, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}. --json also writes
// the park-bench-v1 record with the host it ran on. Exits 1 when an
// oracle check fails, 2 on a usage error.

#include <sched.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

#include "harness.h"
#include "trace.h"
#include "util/json.h"

namespace park_bench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's per_layer metrics, reported by traced runs. Layer
/// samples are per operation; names ending in _ms/_us reduce to the
/// median, the others (counts, ratios) to the mean.
constexpr MetricSpec kPerLayer[] = {
    {"lang.parse_rules_ms", "ms"},
    {"lang.parse_facts_ms", "ms"},
    {"storage.load_facts_ms", "ms"},
    {"storage.compact_ms", "ms"},
    {"storage.compactions", "count"},
    {"storage.segment_rows", "count"},
    {"storage.query_us", "us"},
    {"storage.self_ms", "ms"},
    {"engine.gamma_ms", "ms"},
    {"engine.rule_evaluations", "count"},
    {"engine.planner_row_ratio", "ratio"},
    {"engine.plan_cache_hits", "count"},
    {"engine.plans_compiled", "count"},
    {"engine.sched_rules_considered", "count"},
    {"engine.sched_rules_skipped", "count"},
    {"engine.parallel_match_ms", "ms"},
    {"engine.parallel_merge_ms", "ms"},
    {"engine.pool_busy_ms", "ms"},
    {"engine.parallel_sections", "count"},
    {"engine.parallel_tasks", "count"},
    {"engine.self_ms", "ms"},
    {"core.apply_ms", "ms"},
    {"core.conflict_ms", "ms"},
    {"core.policy_ms", "ms"},
    {"core.loop_other_ms", "ms"},
    {"core.restarts", "count"},
    {"core.conflicts_resolved", "count"},
    {"core.gamma_steps", "count"},
    {"core.step_us_p50", "us"},
    {"core.step_us_max", "us"},
    {"core.maint_ratio", "ratio"},
    {"core.maint_atoms_rederived", "count"},
    {"core.maint_cone_rules", "count"},
    {"core.self_ms", "ms"},
    {"eca.evaluate_ms", "ms"},
    {"eca.apply_ms", "ms"},
    {"eca.journal_ms", "ms"},
    {"eca.journal_sync_ms", "ms"},
    {"eca.self_ms", "ms"},
    {"serve.queue_publish_ms", "ms"},
    {"serve.publish_ms", "ms"},
    {"serve.mean_batch_size", "count"},
    {"serve.snapshot_pin_us", "us"},
    {"serve.self_ms", "ms"},
    {"tail.op_p99_ms", "ms"},
    {"tail.query_p90_us", "us"},
    {"tail.query_p99_us", "us"},
    {"trace.base_op_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
    {"host.slowdown", "ratio"},
};

constexpr const char* kWorkloads[] = {"closure_eval", "conflict_eval",
                                      "kilorule_commit", "payroll_serve"};

/// Set-ups per run: at least kMinSetups, more until they have taken
/// kSetupBudgetS in total, so the median of cheap set-ups spans the same
/// stretch of host time as that of expensive ones.
constexpr size_t kMinSetups = 5;
constexpr double kSetupBudgetS = 1.0;
/// Length of a burst of set-ups between two probe runs.
constexpr double kSetupBurstMs = 100;
/// Chrome trace files keep at most this many spans.
constexpr size_t kMaxTraceSpans = 200000;

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "park_bench: %s\n"
               "usage: park_bench --workload closure_eval|conflict_eval|"
               "kilorule_commit|payroll_serve [--seed N] [--seconds S] "
               "[--trace 0|1] [--threads N] [--exec tuple|batch] "
               "[--trace-out FILE] [--json FILE] [--work-dir DIR] "
               "[--smoke]\n",
               message.c_str());
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

/// Returns an empty string on success, else the problem.
std::string ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return "missing value for " + flag;
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0 || number > 1e15) {
        return "bad --seed";
      }
      config->seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0 || number > 3600) {
        return "bad --seconds";
      }
      config->seconds = number;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return "--trace takes 0 or 1";
      }
      config->trace = value[0] == '1';
    } else if (flag == "--threads") {
      if (!ParseNumber(value, &number) || number < 1 || number > 64) {
        return "bad --threads";
      }
      config->threads = static_cast<int>(number);
    } else if (flag == "--exec") {
      if (std::strcmp(value, "batch") == 0) {
        config->exec_batch = true;
      } else if (std::strcmp(value, "tuple") != 0) {
        return "--exec takes tuple or batch";
      }
    } else if (flag == "--trace-out") {
      config->trace_out = value;
    } else if (flag == "--json") {
      config->json_out = value;
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else {
      return "unknown flag " + flag;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || config->workload == w;
  if (!known) return "unknown or missing --workload";
  if (!config->trace && (config->threads > 0 || config->exec_batch)) {
    return "--threads and --exec are traced-only diagnostics (--trace 1)";
  }
  return "";
}

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config,
                                       Verdict* verdict) {
  if (config.workload == "closure_eval") return MakeClosureEval(config, verdict);
  if (config.workload == "conflict_eval") {
    return MakeConflictEval(config, verdict);
  }
  if (config.workload == "kilorule_commit") {
    return MakeKiloruleCommit(config, verdict);
  }
  return MakePayrollServe(config, verdict);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string CpuModel() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  std::string model = "unknown";
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon != nullptr) {
      model = colon + 1;
      while (!model.empty() && model.front() == ' ') model.erase(0, 1);
      while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
        model.pop_back();
      }
    }
    break;
  }
  std::fclose(f);
  return model;
}

int CpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// A measured value with all its digits (JsonWriter::Double keeps six).
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...} on one line.
std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + park::JsonEscape(metrics[i].name) + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" +
           park::JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

/// What a run sampled, and the host slowdowns its times were scaled by.
struct RunSummary {
  size_t setups = 0;
  size_t ops = 0;
  size_t queries = 0;
  size_t probes = 0;
  double setup_slowdown = 1;
  double slowdown = 1;
};

/// The park-bench-v1 record of one run: the host it ran on, the run's
/// configuration, its summary, and the result.
bool WriteRecord(const RunConfig& config, const Verdict& verdict,
                 const std::vector<Metric>& metrics, const RunSummary& run) {
  park::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("park-bench-v1");
  w.Key("host").BeginObject();
  w.Key("hardware_concurrency").UInt(std::thread::hardware_concurrency());
  w.Key("cpus_available").Int(CpusAvailable());
  w.Key("cpu_model").String(CpuModel());
#ifdef NDEBUG
  w.Key("build_type").String("release");
#else
  w.Key("build_type").String("debug");
#endif
  w.EndObject();
  w.Key("workload").String(config.workload);
  w.Key("seed").UInt(config.seed);
  w.Key("seconds").RawValue(Number(config.seconds));
  w.Key("trace").Bool(config.trace);
  w.Key("threads").Int(config.threads);
  w.Key("exec").String(config.exec_batch ? "batch" : "tuple");
  w.Key("smoke").Bool(config.smoke);
  w.Key("samples").BeginObject();
  w.Key("setups").UInt(run.setups);
  w.Key("ops").UInt(run.ops);
  w.Key("queries").UInt(run.queries);
  w.Key("probes").UInt(run.probes);
  w.EndObject();
  w.Key("setup_slowdown").RawValue(Number(run.setup_slowdown));
  w.Key("slowdown").RawValue(Number(run.slowdown));
  w.Key("correct").Bool(verdict.correct());
  w.Key("attempted").UInt(verdict.attempted());
  w.Key("failed").UInt(verdict.failed());
  w.Key("metrics").RawValue(MetricsJson(metrics));
  w.EndObject();
  const std::string json = std::move(w).str() + "\n";
  std::FILE* f = std::fopen(config.json_out.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), f);
  return std::fclose(f) == 0;
}

/// Median over the blocks of `intervals` of the q-quantile duration (in
/// `unit_ns`), each divided by the host's slowdown during its block.
double ScaledQuantile(const std::vector<Interval>& intervals,
                      const HostProbe& probe, double q, double unit_ns) {
  std::vector<double> per_block;
  for (const std::vector<Interval>& block : Blocks(intervals)) {
    per_block.push_back(Quantile(Durations(block, unit_ns), q) /
                        probe.SlowdownDuring(Extent(block)));
  }
  return Median(per_block);
}

/// Median over the blocks of `intervals` of the rate, each multiplied by
/// the host's slowdown during its block.
double ScaledRate(const std::vector<Interval>& intervals,
                  const HostProbe& probe) {
  std::vector<double> per_block;
  for (const std::vector<Interval>& block : Blocks(intervals)) {
    per_block.push_back(Rate(block) * probe.SlowdownDuring(Extent(block)));
  }
  return Median(per_block);
}

/// Times and rates at the reference host speed (see HostProbe); the
/// set-up times come scaled.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const Phase& phase, const HostProbe& probe) {
  const HostProbe& query_probe =
      phase.query_probe != nullptr ? *phase.query_probe : probe;
  return {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"op_p50_ms", ScaledQuantile(phase.ops, probe, 0.5, 1e6), "ms"},
      {"op_p90_ms", ScaledQuantile(phase.ops, probe, 0.9, 1e6), "ms"},
      {"ops_per_s", ScaledRate(phase.ops, probe), "1/s"},
      {"query_p50_us", ScaledQuantile(phase.queries, query_probe, 0.5, 1e3),
       "us"},
      {"queries_per_s", ScaledRate(phase.queries, query_probe), "1/s"},
  };
}

std::vector<Metric> PerLayer(const LayerSamples& setup_layers,
                             const Phase& untraced, const Phase& traced,
                             const std::vector<Span>& spans,
                             double slowdown) {
  std::map<std::string, double> values;
  values["host.slowdown"] = slowdown;
  for (const char* name :
       {"lang.parse_rules_ms", "lang.parse_facts_ms",
        "storage.load_facts_ms"}) {
    values[name] = setup_layers.MedianOf(name);
  }
  // The self-time table, one row per kind of root span; <layer>.self_ms
  // are the rows of the workload's operations (Park or Commit).
  std::fprintf(stderr, "self time per root span, ms (%zu spans):\n%-10s %7s",
               spans.size(), "root", "count");
  for (int l = 0; l < kNumLayers; ++l) {
    std::fprintf(stderr, " %9s", LayerName(static_cast<Layer>(l)));
  }
  std::fprintf(stderr, "\n");
  for (const auto& [root, self] : SelfTimeByRoot(spans)) {
    const double n = std::max<size_t>(1, self.roots);
    std::fprintf(stderr, "%-10s %7zu", root.c_str(), self.roots);
    for (int l = 0; l < kNumLayers; ++l) {
      std::fprintf(stderr, " %9.4f", self.ns[l] / 1e6 / n);
      if (root == "Park" || root == "Commit") {
        values[std::string(LayerName(static_cast<Layer>(l))) + ".self_ms"] =
            self.ns[l] / 1e6 / n;
      }
    }
    std::fprintf(stderr, "\n");
  }
  values["core.step_us_p50"] = Quantile(traced.step_us, 0.5);
  values["core.step_us_max"] = Quantile(traced.step_us, 1.0);
  values["tail.op_p99_ms"] = Quantile(Durations(untraced.ops, 1e6), 0.99);
  values["tail.query_p90_us"] =
      Quantile(Durations(untraced.queries, 1e3), 0.9);
  values["tail.query_p99_us"] =
      Quantile(Durations(untraced.queries, 1e3), 0.99);
  values["trace.base_op_p50_ms"] = Median(Durations(untraced.ops, 1e6));
  values["trace.overhead_ms"] =
      Median(Durations(traced.ops, 1e6)) - values["trace.base_op_p50_ms"];
  values["trace.spans"] = static_cast<double>(spans.size());

  std::vector<Metric> out;
  for (const MetricSpec& spec : kPerLayer) {
    auto it = values.find(spec.name);
    double value = 0;
    if (it != values.end()) {
      value = it->second;
    } else {
      const std::string name = spec.name;
      const bool timing = name.size() > 3 &&
                          (name.compare(name.size() - 3, 3, "_ms") == 0 ||
                           name.compare(name.size() - 3, 3, "_us") == 0);
      value = timing ? traced.layers.MedianOf(name)
                     : traced.layers.MeanOf(name);
    }
    out.push_back({spec.name, value, spec.unit});
  }
  return out;
}

int Main(int argc, char** argv) {
#ifdef __GLIBC__
  // One malloc arena for every thread. With glibc's default of an arena
  // per thread, payroll's peak RSS depended on how the allocations of its
  // three threads happened to fall across arenas, and ranged over
  // 34-46 MB on runs of the same code; with one arena, over 33-35 MB.
  mallopt(M_ARENA_MAX, 1);
#endif
  RunConfig config;
  const std::string error = ParseArgs(argc, argv, &config);
  if (!error.empty()) return Usage(error);
  if (config.trace && config.trace_out.empty()) {
    config.trace_out = config.work_dir + "/trace_" + config.workload + ".json";
  }

  Verdict verdict;
  std::unique_ptr<Workload> workload = MakeWorkload(config, &verdict);

  // Set-ups, each one fresh and timed; the last one's state is measured.
  // They run in bursts of kSetupBurstMs between two probe runs, and each
  // set-up's time is scaled by the slowdown of the faster of the two (the
  // nearest-rank median of two): set-ups are short enough that the host
  // speed of the whole run is a poor guide.
  HostProbe probe;
  probe.Run();
  Tracer setup_tracer;
  LayerSamples setup_layers;
  std::vector<double> setup_s, burst;
  auto end_burst = [&] {
    probe.Run();
    const double slowdown = probe.Slowdown(probe.runs() - 2, probe.runs());
    for (double s : burst) setup_s.push_back(s / slowdown);
    burst.clear();
  };
  const int64_t setups_start = NowNs();
  int64_t burst_start = setups_start;
  const double setup_budget_ms = (config.smoke ? 0.05 : kSetupBudgetS) * 1e3;
  while (setup_s.size() + burst.size() < kMinSetups ||
         MsBetween(setups_start, NowNs()) < setup_budget_ms) {
    const int64_t t0 = NowNs();
    workload->SetUp(config.trace ? &setup_tracer : nullptr,
                    config.trace ? &setup_layers : nullptr);
    burst.push_back(MsBetween(t0, NowNs()) / 1e3);
    if (MsBetween(burst_start, NowNs()) >= kSetupBurstMs) {
      end_burst();
      burst_start = NowNs();
    }
  }
  if (!burst.empty()) end_burst();
  RunSummary run;
  run.setups = setup_s.size();
  const size_t setup_probes = probe.runs();
  run.setup_slowdown = probe.Slowdown(0, setup_probes);

  std::vector<Metric> metrics;
  Phase untraced;
  if (!config.trace) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds));
    workload->Measure(deadline, nullptr, &probe, &untraced);
    probe.Run();  // the phase's last probe
    run.slowdown = probe.Slowdown(setup_probes, probe.runs());
    metrics = EndToEnd(setup_s, untraced, probe);
    run.ops = untraced.ops.size();
    run.queries = untraced.queries.size();
  } else {
    // Half the time untraced (the overhead baseline and the tails), half
    // traced; both run the same operations.
    const auto half = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(config.seconds / 2));
    workload->Measure(Clock::now() + half, nullptr, &probe, &untraced);
    Tracer tracer, extra_tracer;
    Phase traced;
    workload->Measure(Clock::now() + half, &tracer, &probe, &traced);
    probe.Run();
    workload->MeasureExtra(&extra_tracer, &traced.layers);
    const std::vector<Span> spans = tracer.Spans();
    run.slowdown = probe.Slowdown(setup_probes, probe.runs());
    metrics = PerLayer(setup_layers, untraced, traced, spans, run.slowdown);
    run.ops = traced.ops.size();
    run.queries = traced.queries.size();

    const std::vector<std::vector<Span>> phases = {
        setup_tracer.Spans(), spans, extra_tracer.Spans()};
    size_t violations = 0;
    for (const auto& p : phases) violations += CountNestingViolations(p);
    if (violations > 0) {
      verdict.Fail(std::to_string(violations) +
                   " trace spans lie outside their parent");
    }
    std::filesystem::path out(config.trace_out);
    if (out.has_parent_path()) {
      std::filesystem::create_directories(out.parent_path());
    }
    if (WriteChromeTrace(config.trace_out, phases,
                         {"setup", "measure", "single-writer"},
                         kMaxTraceSpans)) {
      std::fprintf(stderr, "park_bench: wrote %s\n", config.trace_out.c_str());
    } else {
      verdict.Fail("cannot write " + config.trace_out);
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s\n", config.workload.c_str(), m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
  }
  run.probes = probe.runs();
  if (!config.json_out.empty() &&
      !WriteRecord(config, verdict, metrics, run)) {
    std::fprintf(stderr, "park_bench: cannot write %s\n",
                 config.json_out.c_str());
    verdict.Fail("cannot write " + config.json_out);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verdict.correct() ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted()),
              static_cast<unsigned long long>(verdict.failed()),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return verdict.correct() && verdict.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace park_bench

int main(int argc, char** argv) { return park_bench::Main(argc, argv); }
