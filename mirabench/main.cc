// mirabench: the MIRA benchmark driver.
//
//   mirabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   mirabench --workload service --seed <n> --calibrate
//
// Generates the seeded inputs, builds a DiscoveryEngine with the structures
// the workload serves, drives it through its public entry points, checks
// every answer, and prints one JSON line as the last line of stdout: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a traced
// one. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "common/logging.h"
#include "common/rng.h"
#include "discovery/cts_search.h"
#include "inputs.h"
#include "layers.h"
#include "workloads.h"

namespace mirabench {

namespace mdisc = mira::discovery;

namespace {

const WorkloadSpec kWorkloads[] = {
    {Workload::kLookupCts, "lookup_cts",
     "one analyst, closed loop, CTS: one medoid scan and ~20 small per-cluster "
     "flat scans",
     mdisc::Method::kCts, false, true, 5.0, 0.25},
    {Workload::kService, "service",
     "open-loop Poisson arrivals from three tenants into DiscoveryService over "
     "ANNS, below the knee",
     mdisc::Method::kAnns, true, false, 10.0, 0.05},
};

/// Checks before printing at most this many failed checks.
constexpr uint64_t kPrintedFailures = 10;

const char* const kEndToEnd[] = {"setup_s",     "peak_rss_mb", "p50_ms",
                                 "p99_ms",      "goodput_qps", "ndcg10"};

/// Fixed loops that do not call MIRA, timed at the start and end of a run so
/// a reader can spot runs taken in a slow host period: an ALU loop, and a
/// pointer chase through 8 MiB (past the L2, inside the L3), which shows the
/// memory contention from other tenants that the ALU loop misses. Never used
/// to scale a metric. The chase buffer is freed before the run's peak RSS.
struct HostWitness {
  double alu_ms = 0.0;
  double mem_ms = 0.0;
};

HostWitness MeasureHostWitness() {
  HostWitness witness;
  double start = Now();
  uint64_t x = 88172645463325252ULL;
  double sum = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += static_cast<double>(x & 1023);
  }
  witness.alu_ms = (Now() - start) * 1e3;

  // One random cycle through every slot (Sattolo's shuffle, fixed seed).
  std::vector<uint32_t> next(size_t{8} << 20 >> 2);
  std::iota(next.begin(), next.end(), 0u);
  mira::Rng rng(7);
  for (size_t i = next.size() - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextBounded(i)]);
  }
  uint32_t at = 0;
  start = Now();
  for (int i = 0; i < 1'000'000; ++i) at = next[at];
  witness.mem_ms = (Now() - start) * 1e3;
  // Keeps both loops alive.
  if (sum < 0.0 || at == next.size()) witness.alu_ms = 0.0;
  return witness;
}

bool ParseArgs(int argc, char** argv, Args* args, bool* calibrate) {
  bool have_seconds = false;
  bool have_trace = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--calibrate") {
      *calibrate = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->spec = FindWorkload(value);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  if (args->spec == nullptr || !have_seed) return false;
  return *calibrate || (have_seconds && have_trace);
}

mdisc::EngineOptions EngineOptionsFor(const WorkloadSpec& spec) {
  mdisc::EngineOptions options;
  options.build_anns = spec.build_anns;
  options.build_cts = spec.build_cts;
  return options;
}

void PrintResult(const RunResult& result, bool trace) {
  std::string metrics;
  const auto append = [&](const std::string& name, double value,
                          const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;  // already a failed check
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    metrics += buffer;
  };
  if (trace) {
    for (const auto& [name, unit] : LayerMetricNames()) {
      append(name, result.Get(name), unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      for (const auto& metric : result.metrics) {
        if (metric.name == name) append(name, metric.value, metric.unit);
      }
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  bool calibrate = false;
  if (!ParseArgs(argc, argv, &args, &calibrate)) {
    std::fprintf(stderr,
                 "usage: mirabench --workload "
                 "<lookup_cts|service> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "       mirabench --workload service --seed <n> --calibrate\n");
    return 2;
  }
  mira::SetLogLevel(mira::LogLevel::kWarning);
  const HostWitness witness_start = MeasureHostWitness();

  Inputs inputs = MakeInputs(args.seed);
  RunResult result;
  CheckInputs(inputs, &result);

  // The corpus is moved into the engine, so the driver keeps no second copy.
  const mdisc::EngineOptions options = EngineOptionsFor(*args.spec);
  const double build_begin = Now();
  auto built = mdisc::DiscoveryEngine::Build(std::move(inputs.federation),
                                             inputs.bank.lexicon(), options);
  const double build_s = Now() - build_begin;
  if (!built.ok()) {
    std::fprintf(stderr, "error: engine build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<mdisc::DiscoveryEngine> engine_owner = built.MoveValue();
  const mdisc::DiscoveryEngine& engine = *engine_owner;
  if (calibrate) return CalibrateService(inputs, engine, args.seed);

  if (args.spec->workload == Workload::kLookupCts) {
    const auto* cts =
        dynamic_cast<const mdisc::CtsSearcher*>(engine.searcher(mdisc::Method::kCts));
    std::fprintf(stderr, "cts: clusters=%zu largest_cluster_fraction=%.4f\n",
                 cts->num_clusters(), cts->largest_cluster_fraction());
  }
  if (args.trace) {
    ReportBuild(engine.build_report(), &result);
    MeasureBuildStages(*args.spec, options, engine, &result);
  }

  if (args.spec->workload == Workload::kService) {
    if (!RunService(args, inputs, engine, build_s, &result)) return 3;
  } else {
    if (!args.trace) result.Set("setup_s", build_s, "s");
    RunClosedLoop(args, inputs, engine, &result);
  }

  for (const auto& metric : result.metrics) {
    if (!std::isfinite(metric.value)) result.Fail(metric.name + " is not finite");
  }
  const HostWitness witness_end = MeasureHostWitness();
  std::fprintf(stderr,
               "host_witness_ms start alu=%.3f mem=%.3f end alu=%.3f mem=%.3f "
               "| blocks of %zu requests, %zu samples beyond each p99 | "
               "checks failed=%llu\n",
               witness_start.alu_ms, witness_start.mem_ms, witness_end.alu_ms,
               witness_end.mem_ms, kBlockSize, kBeyondP99,
               static_cast<unsigned long long>(result.check_failures));
  PrintResult(result, args.trace);
  return 0;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

double RunResult::Get(const std::string& name) const {
  for (const auto& metric : metrics) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

void RunResult::Fail(const std::string& what) {
  if (++check_failures <= kPrintedFailures) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void TimingSummary::Add(double start_s, double done_s, bool good) {
  block_.push_back({start_s, done_s, good});
  if (block_.size() < kBlockSize) return;
  if (block_p99_.empty()) first_start_s_ = block_[0].start_s;
  std::vector<double> latencies_ms;
  for (size_t w = 0; w < kBlockSize; w += kWindowSize) {
    latencies_ms.clear();
    size_t window_good = 0;
    double window_done_s = block_[w].start_s;
    for (size_t i = w; i < w + kWindowSize; ++i) {
      latencies_ms.push_back((block_[i].done_s - block_[i].start_s) * 1e3);
      window_good += block_[i].good ? 1 : 0;
      window_done_s = std::max(window_done_s, block_[i].done_s);
    }
    std::sort(latencies_ms.begin(), latencies_ms.end());
    window_p50_.push_back(latencies_ms[kWindowSize / 2]);
    window_goodput_.push_back(static_cast<double>(window_good) /
                              (window_done_s - block_[w].start_s));
    good_ += window_good;
    last_done_s_ = std::max(last_done_s_, window_done_s);
  }
  latencies_ms.clear();
  for (const auto& request : block_) {
    latencies_ms.push_back((request.done_s - request.start_s) * 1e3);
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  block_p99_.push_back(latencies_ms[kBlockSize - kBeyondP99 - 1]);
  block_.clear();
}

void TimingSummary::Report(const WorkloadSpec& spec, RunResult* result) const {
  if (block_p99_.empty()) {
    result->Fail("the run did not fill one timing block");
    return;
  }
  std::fprintf(stderr,
               "timing: %zu windows of %zu requests, p50_ms min=%.4f "
               "median=%.4f max=%.4f; %zu blocks of %zu, p99_ms min=%.4f "
               "median=%.4f max=%.4f\n",
               window_p50_.size(), kWindowSize, Quantile(window_p50_, 0.0),
               Quantile(window_p50_, 0.5), Quantile(window_p50_, 1.0),
               block_p99_.size(), kBlockSize, Quantile(block_p99_, 0.0),
               Quantile(block_p99_, 0.5), Quantile(block_p99_, 1.0));
  result->Set("p50_ms", Quantile(window_p50_, 0.0), "ms");
  result->Set("p99_ms", Quantile(block_p99_, spec.p99_block_quantile), "ms");
  result->Set("goodput_qps",
              spec.workload == Workload::kService
                  ? static_cast<double>(good_) / (last_done_s_ - first_start_s_)
                  : Quantile(window_goodput_, 1.0),
              "1/s");
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<uint32_t> TopIds(const mdisc::Ranking& ranking) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < ranking.size() && i < 10; ++i) {
    ids.push_back(ranking[i].relation);
  }
  return ids;
}

}  // namespace mirabench

int main(int argc, char** argv) { return mirabench::Main(argc, argv); }
