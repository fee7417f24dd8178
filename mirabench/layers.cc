#include "layers.h"

#include <algorithm>
#include <optional>
#include <string>

#include "cluster/hdbscan.h"
#include "dimred/umap.h"
#include "index/hnsw_index.h"
#include "index/product_quantizer.h"
#include "vecmath/simd.h"

namespace mirabench {

namespace {

namespace mdisc = mira::discovery;

/// Judged queries the overhead comparison runs on.
constexpr size_t kOverheadQueries = 64;
constexpr size_t kOverheadWarmCalls = 3;
/// Timed passes of the kernel and cell-encoder references.
constexpr size_t kDotPasses = 21;
constexpr size_t kEncodePasses = 3;

constexpr double kMiB = 1024.0 * 1024.0;

/// Wall seconds of `fn()`.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const double start = Now();
  fn();
  return Now() - start;
}

}  // namespace

const std::vector<LayerMetricName>& LayerMetricNames() {
  static const std::vector<LayerMetricName> kNames = {
      {"build.embed_s", "s"},
      {"build.embed_cells_per_s", "1/s"},
      {"embed.query_ms", "ms"},
      {"embed.cell_encode_us", "us"},
      {"discovery.query_ms", "ms"},
      {"discovery.engine_overhead_us", "us"},
      {"anns.hnsw_search_ms", "ms"},
      {"anns.pq_adc_ms", "ms"},
      {"anns.group_relations_ms", "ms"},
      {"cts.medoid_match_ms", "ms"},
      {"cts.cluster_search_ms", "ms"},
      {"vectordb.search_self_us.medoid_match", "us"},
      {"vectordb.search_self_us.cluster_search", "us"},
      {"vectordb.calls_per_query", "count"},
      {"index.hnsw_dist_comps_per_query", "count"},
      {"index.hnsw_popped_per_query", "count"},
      {"index.adc_decoded_per_query", "count"},
      {"index.flat_scan_self_us", "us"},
      {"index.flat_rows_per_call", "count"},
      {"index.flat_scan_calls_per_query.medoid_match", "count"},
      {"index.flat_scan_calls_per_query.cluster_search", "count"},
      {"index.flat_scan_overhead_us", "us"},
      {"index.pq_train_s", "s"},
      {"index.hnsw_build_s", "s"},
      {"build.anns_s", "s"},
      {"build.anns_index_mb", "MB"},
      {"vecmath.dot_ns_per_row", "ns"},
      {"dimred.umap_s", "s"},
      {"cluster.hdbscan_s", "s"},
      {"cluster.medoids_s", "s"},
      {"build.cts_s", "s"},
      {"build.cts_clusters", "count"},
      {"build.cts_index_mb", "MB"},
      {"service.queue_ms.p50", "ms"},
      {"service.queue_ms.p99", "ms"},
      {"service.run_ms.p50", "ms"},
      {"service.run_ms.p99", "ms"},
      {"service.shed_frac", "frac"},
      {"service.evicted_frac", "frac"},
      {"service.preempted_frac", "frac"},
      {"service.degraded_frac", "frac"},
      {"service.fanout_frac", "frac"},
      {"loadgen.late_ms.p99", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kNames;
}

void ReportBuild(const mdisc::BuildReport& report, RunResult* result) {
  const double embed_s = report.embed_ms / 1e3;
  result->Set("build.embed_s", embed_s, "s");
  result->Set("build.embed_cells_per_s",
              embed_s > 0.0 ? static_cast<double>(report.num_cells) / embed_s
                            : 0.0,
              "1/s");
  result->Set("build.anns_s", report.anns_build_ms / 1e3, "s");
  result->Set("build.anns_index_mb",
              static_cast<double>(report.anns_index_bytes) / kMiB, "MB");
  result->Set("build.cts_s", report.cts_build_ms / 1e3, "s");
  result->Set("build.cts_clusters", static_cast<double>(report.cts_clusters),
              "count");
  result->Set("build.cts_index_mb",
              static_cast<double>(report.cts_index_bytes) / kMiB, "MB");
}

void MeasureBuildStages(const WorkloadSpec& spec,
                        const mdisc::EngineOptions& options,
                        const mdisc::DiscoveryEngine& engine,
                        RunResult* result) {
  const mdisc::CorpusEmbeddings& corpus = engine.corpus();
  const size_t n = corpus.num_cells();
  const size_t dim = corpus.dim();

  if (spec.build_anns) {
    // The stages the ANNS collection runs, with the parameters it derives.
    mira::index::PqOptions pq;
    pq.num_subquantizers = options.anns.pq_subquantizers;
    while (pq.num_subquantizers > 1 && dim % pq.num_subquantizers != 0) {
      --pq.num_subquantizers;
    }
    pq.nbits = options.anns.pq_nbits;
    result->Set("index.pq_train_s", TimeSeconds([&] {
                  if (!mira::index::ProductQuantizer::Train(corpus.vectors, pq)
                           .ok()) {
                    result->Fail("PQ training failed");
                  }
                }),
                "s");
    mira::index::HnswOptions hnsw;
    hnsw.M = options.anns.hnsw_m;
    hnsw.ef_construction = options.anns.hnsw_ef_construction;
    hnsw.ef_search = options.anns.ef_search;
    hnsw.seed = options.anns.seed;
    result->Set("index.hnsw_build_s", TimeSeconds([&] {
                  mira::index::HnswIndex index(hnsw);
                  index.Reserve(n);
                  for (size_t i = 0; i < n; ++i) {
                    if (!index.Add(i, corpus.vectors.RowVec(i)).ok()) {
                      result->Fail("HNSW insert failed");
                    }
                  }
                  if (!index.Build().ok()) result->Fail("HNSW build failed");
                }),
                "s");
  }

  if (spec.build_cts) {
    // CTS clusters every cell while the corpus stays under
    // max_clustering_points, which the input guard checks.
    std::optional<mira::dimred::UmapModel> umap;
    result->Set("dimred.umap_s", TimeSeconds([&] {
                  auto fitted =
                      mira::dimred::FitUmap(corpus.vectors, options.cts.umap);
                  if (fitted.ok()) umap = fitted.MoveValue();
                }),
                "s");
    if (!umap.has_value()) {
      result->Fail("UMAP failed");
      return;
    }
    std::optional<mira::cluster::HdbscanResult> clusters;
    result->Set("cluster.hdbscan_s", TimeSeconds([&] {
                  auto found = mira::cluster::Hdbscan(umap->embedding,
                                                      options.cts.hdbscan);
                  if (found.ok()) clusters = found.MoveValue();
                }),
                "s");
    if (!clusters.has_value()) {
      result->Fail("HDBSCAN failed");
      return;
    }
    result->Set("cluster.medoids_s", TimeSeconds([&] {
                  mira::cluster::ComputeMedoids(umap->embedding, *clusters);
                }),
                "s");
  }

  // Cell encoder over every corpus cell (the work ExS repeats per query).
  std::vector<const std::string*> cells;
  for (const auto& relation : engine.federation().relations()) {
    for (const auto& row : relation.rows) {
      for (const auto& cell : row) {
        if (!cell.empty()) cells.push_back(&cell);
      }
    }
  }
  std::vector<double> passes;
  for (size_t pass = 0; pass < kEncodePasses; ++pass) {
    passes.push_back(TimeSeconds([&] {
      for (const std::string* cell : cells) {
        engine.encoder().EncodeText(*cell);
      }
    }));
  }
  result->Set("embed.cell_encode_us",
              Quantile(passes, 0.5) * 1e6 / static_cast<double>(cells.size()),
              "us");

  // The batched dot kernel over the whole corpus matrix.
  std::vector<float> scores(n);
  passes.clear();
  for (size_t pass = 0; pass < kDotPasses; ++pass) {
    const float* query = corpus.vectors.Row(pass % n);
    passes.push_back(TimeSeconds([&] {
      mira::vecmath::DotBatch(query, corpus.vectors.Row(0), n, dim,
                              scores.data());
    }));
  }
  result->Set("vecmath.dot_ns_per_row",
              Quantile(passes, 0.5) * 1e9 / static_cast<double>(n), "ns");
}

void MeasureOverheads(const mdisc::DiscoveryEngine& engine,
                      mdisc::Method method,
                      const std::vector<mira::datagen::GeneratedQuery>& queries,
                      RunResult* result) {
  const mdisc::Searcher* searcher = engine.searcher(method);
  mdisc::DiscoveryOptions options;
  options.top_k = 10;
  std::vector<double> overhead_ms, untraced_ms, traced_ms;
  const size_t count = std::min(kOverheadQueries, queries.size());
  for (size_t q = 0; q < count; ++q) {
    const std::string& text = queries[q].text;
    // Repeats of one query keep getting faster for a few calls as caches
    // fill, so run it untimed first; then time each call twice in mirrored
    // order (A B C C B A), so what drift is left favours none of them.
    bool ok = true;
    for (size_t k = 0; k < kOverheadWarmCalls; ++k) {
      ok = searcher->Search(text, options).ok() && ok;
    }
    double times[3] = {0.0, 0.0, 0.0};
    for (size_t k = 0; k < 6; ++k) {
      const size_t which = k < 3 ? k : 5 - k;
      times[which] += TimeSeconds([&] {
        if (which == 0) {
          ok = searcher->Search(text, options).ok() && ok;
        } else if (which == 1) {
          ok = engine.Search(method, text, options).ok() && ok;
        } else {
          ok = engine.SearchTraced(method, text, options).ok() && ok;
        }
      }) * 1e3 / 2.0;
    }
    if (!ok) result->Fail("overhead comparison search failed");
    overhead_ms.push_back(times[1] - times[0]);
    untraced_ms.push_back(times[1]);
    traced_ms.push_back(times[2]);
  }
  result->Set("discovery.engine_overhead_us",
              Quantile(overhead_ms, 0.5) * 1e3, "us");
  result->Set("obs.trace_overhead_pct",
              (Quantile(traced_ms, 0.5) / Quantile(untraced_ms, 0.5) - 1.0) *
                  100.0,
              "%");
}

void ReportQueryLayers(const SpanLedger& ledger, RunResult* result) {
  const double requests =
      static_cast<double>(std::max<uint64_t>(1, ledger.requests()));
  const auto per_request_ms = [&](const char* suffix) {
    return ledger.Sum(suffix).total_ms / requests;
  };
  const auto self_us_per_call = [&](const char* suffix) {
    const SpanLedger::PathStats stats = ledger.Sum(suffix);
    return stats.calls == 0
               ? 0.0
               : stats.self_ms * 1e3 / static_cast<double>(stats.calls);
  };
  const auto calls_per_request = [&](const char* suffix) {
    return static_cast<double>(ledger.Sum(suffix).calls) / requests;
  };
  const auto counter_per_request = [&](const char* suffix, const char* key) {
    return static_cast<double>(ledger.Sum(suffix).Counter(key)) / requests;
  };

  result->Set("discovery.query_ms", per_request_ms("query"), "ms");
  result->Set("embed.query_ms", per_request_ms("embed_query"), "ms");
  result->Set("anns.hnsw_search_ms", per_request_ms("anns.hnsw_search"), "ms");
  result->Set("anns.pq_adc_ms", per_request_ms("anns.pq_adc"), "ms");
  result->Set("anns.group_relations_ms",
              per_request_ms("anns.group_relations"), "ms");
  result->Set("cts.medoid_match_ms", per_request_ms("cts.medoid_match"), "ms");
  result->Set("cts.cluster_search_ms", per_request_ms("cts.cluster_search"),
              "ms");
  result->Set("vectordb.search_self_us.medoid_match",
              self_us_per_call("cts.medoid_match/vdb.search"), "us");
  result->Set("vectordb.search_self_us.cluster_search",
              self_us_per_call("cts.cluster_search/vdb.search"), "us");
  result->Set("vectordb.calls_per_query", calls_per_request("vdb.search"),
              "count");
  result->Set("index.hnsw_dist_comps_per_query",
              counter_per_request("hnsw.search", "dist_comps"), "count");
  result->Set("index.hnsw_popped_per_query",
              counter_per_request("hnsw.search", "popped"), "count");
  result->Set("index.adc_decoded_per_query",
              counter_per_request("hnsw.search", "adc_decoded"), "count");

  const SpanLedger::PathStats flat = ledger.Sum("flat.scan");
  const double flat_self_us = self_us_per_call("flat.scan");
  const double rows_per_call =
      flat.calls == 0 ? 0.0
                      : static_cast<double>(flat.Counter("rows_scanned")) /
                            static_cast<double>(flat.calls);
  result->Set("index.flat_scan_self_us", flat_self_us, "us");
  result->Set("index.flat_rows_per_call", rows_per_call, "count");
  result->Set("index.flat_scan_calls_per_query.medoid_match",
              calls_per_request("cts.medoid_match/vdb.search/flat.scan"),
              "count");
  result->Set("index.flat_scan_calls_per_query.cluster_search",
              calls_per_request("cts.cluster_search/vdb.search/flat.scan"),
              "count");
  result->Set("index.flat_scan_overhead_us",
              flat.calls == 0
                  ? 0.0
                  : flat_self_us -
                        rows_per_call * result->Get("vecmath.dot_ns_per_row") /
                            1e3,
              "us");
}

}  // namespace mirabench
