#ifndef MIRABENCH_COMMON_H_
#define MIRABENCH_COMMON_H_

// Shared vocabulary of the benchmark driver: command-line arguments, the
// workload table, the result line, and the one rule that summarises timings.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "discovery/engine.h"

namespace mirabench {

enum class Workload { kLookupCts, kService };

/// Static description of one workload.
struct WorkloadSpec {
  Workload workload;
  const char* name;
  const char* why;
  mira::discovery::Method method;
  /// Which engine structures Build() creates for this workload.
  bool build_anns;
  bool build_cts;
  /// A request counts towards goodput only if it finishes within this limit.
  /// Set well above the unloaded p99 of the workload.
  double latency_limit_ms;
  /// Which block p99 the run reports (0 = the fastest block). A host stall
  /// delays one request of the closed loop, but every request due during it
  /// on `service`, so that there most blocks hold one.
  double p99_block_quantile;
};

const WorkloadSpec* FindWorkload(const std::string& name);

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything one run reports: metrics in print order, request counts, and
/// the failed answer or input checks (a run with any is incorrect).
struct RunResult {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;

  void Set(const std::string& name, double value, const std::string& unit);
  /// The value set under `name`, 0 when unset.
  double Get(const std::string& name) const;
  /// Records a failed check; the first few are printed to stderr.
  void Fail(const std::string& what);
  bool correct() const { return check_failures == 0; }
};

// ---- Timing summary rule -------------------------------------------------
//
// A run's timed requests, in send order on the closed loop and in due order
// on `service`, are cut into consecutive windows of kWindowSize and blocks
// of kBlockSize (kBlockSize is chosen so exactly ten samples lie beyond a
// block's p99). A run reports:
//  - p50_ms: the median of its fastest window;
//  - goodput_qps: the goodput of its fastest window on the closed loop; on
//    `service`, whose arrival schedule sets how fast a window's requests
//    come, the goodput of all full blocks together;
//  - p99_ms: the block p99 at WorkloadSpec::p99_block_quantile.
// The host's speed drifts by up to 2x over seconds to minutes. The fastest
// stretch of a run repeats from run to run better than any average over the
// run, while a change that slows every request, or its slowest one percent,
// slows every window and block and shows in full. The README gives the
// measurements behind each choice.

inline constexpr size_t kWindowSize = 200;
inline constexpr size_t kBlockSize = 1000;
/// Samples beyond the per-block p99 (printed next to the result).
inline constexpr size_t kBeyondP99 = 10;

/// Summarises a run's timed requests by the rule above. Keeps one block of
/// requests and a few numbers per window, so its memory does not grow with
/// the number of requests a faster program gets through.
class TimingSummary {
 public:
  TimingSummary() { block_.reserve(kBlockSize); }

  /// Adds the next timed request: when it was sent (closed loop) or due
  /// (`service`), when it completed, and whether it counts towards goodput.
  void Add(double start_s, double done_s, bool good);
  /// Reports p50_ms, p99_ms and goodput_qps into `result`. Only whole blocks
  /// count; a run without one fails its checks.
  void Report(const WorkloadSpec& spec, RunResult* result) const;

 private:
  struct Request {
    double start_s;
    double done_s;
    bool good;
  };
  std::vector<Request> block_;
  std::vector<double> window_p50_;
  std::vector<double> window_goodput_;
  std::vector<double> block_p99_;
  /// Over whole blocks only.
  size_t good_ = 0;
  double first_start_s_ = 0.0;
  double last_done_s_ = 0.0;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Process high-water resident set, in MB.
double PeakRssMb();

/// The top-10 relation ids of a ranking.
std::vector<uint32_t> TopIds(const mira::discovery::Ranking& ranking);

}  // namespace mirabench

#endif  // MIRABENCH_COMMON_H_
