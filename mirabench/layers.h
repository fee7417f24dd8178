#ifndef MIRABENCH_LAYERS_H_
#define MIRABENCH_LAYERS_H_

// Per-layer measurements of a traced run, taken from outside MIRA: the span
// ledger of the timed loop, plus build-path stages and kernels timed by
// calling their public functions on the engine's corpus with its options.

#include <vector>

#include "common.h"
#include "datagen/query_generator.h"
#include "discovery/engine.h"
#include "span_ledger.h"

namespace mirabench {

/// Every per-layer metric, in print order. A traced run prints all of them;
/// one whose layer the workload bypasses reads 0.
struct LayerMetricName {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricName>& LayerMetricNames();

/// The build.* metrics, from the engine's BuildReport.
void ReportBuild(const mira::discovery::BuildReport& report,
                 RunResult* result);

/// Times the build-path stages the workload's Build() ran (PQ training, HNSW
/// insertion, UMAP, HDBSCAN, medoids) on engine.corpus() with `options`, the
/// cell encoder over every corpus cell, and the DotBatch kernel over the
/// corpus matrix.
void MeasureBuildStages(const WorkloadSpec& spec,
                        const mira::discovery::EngineOptions& options,
                        const mira::discovery::DiscoveryEngine& engine,
                        RunResult* result);

/// On a fixed sample of `queries`, alternates searcher(m)->Search,
/// DiscoveryEngine::Search and SearchTraced: reports the engine's own
/// overhead and what tracing costs at the median.
void MeasureOverheads(const mira::discovery::DiscoveryEngine& engine,
                      mira::discovery::Method method,
                      const std::vector<mira::datagen::GeneratedQuery>& queries,
                      RunResult* result);

/// The query-path layer metrics from the timed loop's span ledger.
void ReportQueryLayers(const SpanLedger& ledger, RunResult* result);

}  // namespace mirabench

#endif  // MIRABENCH_LAYERS_H_
