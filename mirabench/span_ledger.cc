#include "span_ledger.h"

#include <algorithm>
#include <utility>

namespace mirabench {

int64_t SpanLedger::PathStats::Counter(const std::string& key) const {
  auto it = counters.find(key);
  return it == counters.end() ? 0 : it->second;
}

int32_t SpanLedger::Open(const char* name, int32_t parent, double start_ms,
                         double duration_ms) {
  current_.push_back({name, parent, start_ms, duration_ms, {}});
  return static_cast<int32_t>(current_.size() - 1);
}

void SpanLedger::Graft(int32_t parent, double offset_ms,
                       const mira::obs::QueryTrace& trace) {
  const int32_t base = static_cast<int32_t>(current_.size());
  for (const auto& span : trace.spans()) {
    current_.push_back({span.name,
                        span.parent < 0 ? parent : base + span.parent,
                        offset_ms + span.start_ms, span.duration_ms,
                        span.counters});
  }
}

void SpanLedger::Commit() {
  const size_t n = current_.size();
  std::vector<std::string> path(n);
  std::vector<std::vector<std::pair<double, double>>> children(n);
  for (size_t i = 0; i < n; ++i) {
    const Span& span = current_[i];
    // Parents precede their children, so the parent's path is known.
    path[i] = span.parent < 0 ? span.name
                              : path[static_cast<size_t>(span.parent)] + "/" +
                                    span.name;
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(
          span.start_ms, span.start_ms + span.duration_ms);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const Span& span = current_[i];
    const double begin = span.start_ms;
    const double end = span.start_ms + span.duration_ms;
    // Union of the children's intervals, clipped to this span (parallel
    // children may overlap).
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = begin;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, reach);
      hi = std::min(hi, end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    PathStats& stats = paths_[path[i]];
    ++stats.calls;
    stats.total_ms += span.duration_ms;
    stats.self_ms += std::max(0.0, span.duration_ms - covered);
    for (const auto& counter : span.counters) {
      stats.counters[counter.key] += counter.value;
    }
  }
  current_.clear();
  ++requests_;
}

SpanLedger::PathStats SpanLedger::Sum(std::string_view suffix) const {
  PathStats sum;
  for (const auto& [path, stats] : paths_) {
    const bool match =
        path == suffix ||
        (path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0 &&
         path[path.size() - suffix.size() - 1] == '/');
    if (!match) continue;
    sum.calls += stats.calls;
    sum.total_ms += stats.total_ms;
    sum.self_ms += stats.self_ms;
    for (const auto& [key, value] : stats.counters) sum.counters[key] += value;
  }
  return sum;
}

void SpanLedger::Print(std::FILE* out) const {
  const double requests = static_cast<double>(std::max<uint64_t>(1, requests_));
  std::fprintf(out, "span ledger over %llu requests (per call: incl / self us)\n",
               static_cast<unsigned long long>(requests_));
  for (const auto& [path, stats] : paths_) {
    const double calls = static_cast<double>(stats.calls);
    std::fprintf(out, "  %-78s calls/req=%8.2f incl=%10.2f self=%10.2f", path.c_str(),
                 calls / requests, stats.total_ms * 1e3 / calls,
                 stats.self_ms * 1e3 / calls);
    for (const auto& [key, value] : stats.counters) {
      std::fprintf(out, " %s=%.1f", key.c_str(),
                   static_cast<double>(value) / calls);
    }
    std::fprintf(out, "\n");
  }
}

}  // namespace mirabench
