#ifndef MIRABENCH_WORKLOADS_H_
#define MIRABENCH_WORKLOADS_H_

#include "common.h"
#include "discovery/engine.h"
#include "inputs.h"

namespace mirabench {

/// Requests sent before timing starts, so caches fill and lazy set-up ends.
inline constexpr double kWarmupSeconds = 1.0;

/// One client sending `spec.method` queries back to back (lookup_cts).
/// Reports p50/p99/goodput/ndcg10, or the query-path layer metrics when
/// traced, and runs the answer checks.
void RunClosedLoop(const Args& args, const Inputs& inputs,
                   const mira::discovery::DiscoveryEngine& engine,
                   RunResult* result);

/// Open-loop Poisson arrivals from three tenants into a DiscoveryService over
/// `engine`. Adds the service's Start() to `setup_s`. Returns false when the
/// generator fell behind its schedule, in which case the run is invalid.
bool RunService(const Args& args, const Inputs& inputs,
                const mira::discovery::DiscoveryEngine& engine, double build_s,
                RunResult* result);

/// Ramps the offered rate until completed qps stops rising and prints the
/// knee. Returns the process exit code.
int CalibrateService(const Inputs& inputs,
                     const mira::discovery::DiscoveryEngine& engine,
                     uint64_t seed);

}  // namespace mirabench

#endif  // MIRABENCH_WORKLOADS_H_
