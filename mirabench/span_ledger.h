#ifndef MIRABENCH_SPAN_LEDGER_H_
#define MIRABENCH_SPAN_LEDGER_H_

// In-memory span ledger of a traced run. The benchmark opens its own span
// around each call into MIRA, grafts the span tree that SearchTraced returned
// under it, and the ledger aggregates every request's tree by full parent
// path, so one span name at two call sites stays two rows.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace mirabench {

class SpanLedger {
 public:
  struct PathStats {
    uint64_t calls = 0;
    double total_ms = 0.0;
    /// Duration minus the part of it that child spans cover.
    double self_ms = 0.0;
    std::map<std::string, int64_t> counters;

    int64_t Counter(const std::string& key) const;
  };

  /// Adds a span to the current request; returns its index. `parent` is -1
  /// for the request's root. Times are milliseconds from the request start.
  int32_t Open(const char* name, int32_t parent, double start_ms,
               double duration_ms);
  /// Grafts `trace` under span `parent`, shifting its times by `offset_ms`.
  void Graft(int32_t parent, double offset_ms,
             const mira::obs::QueryTrace& trace);
  /// Aggregates the current request's tree and starts the next one.
  void Commit();

  uint64_t requests() const { return requests_; }
  /// Sum over every path that ends in `suffix` (whole path segments, e.g.
  /// "cts.medoid_match/vdb.search").
  PathStats Sum(std::string_view suffix) const;
  /// Prints every path with calls, inclusive and self time per call, and
  /// counters per call.
  void Print(std::FILE* out) const;

 private:
  struct Span {
    const char* name;
    int32_t parent;
    double start_ms;
    double duration_ms;
    std::vector<mira::obs::SpanCounter> counters;
  };

  std::vector<Span> current_;
  std::map<std::string, PathStats> paths_;
  uint64_t requests_ = 0;
};

}  // namespace mirabench

#endif  // MIRABENCH_SPAN_LEDGER_H_
