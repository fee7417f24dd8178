// Closed-loop workloads: one client, the next request sent when the previous
// one returned. Timed requests are the judged queries followed by fresh
// texts, so no text repeats.

#include <cstdio>
#include <string>
#include <vector>

#include "layers.h"
#include "span_ledger.h"
#include "workloads.h"

namespace mirabench {

namespace {

namespace mdisc = mira::discovery;

/// Timed requests re-run after the loop: every kSampleStride-th, up to
/// kSampleSize of them (all inside the first block).
constexpr size_t kSampleStride = 15;
constexpr size_t kSampleSize = 64;
/// Warm-up texts asked from the stream at a time.
constexpr size_t kWarmupBatch = 32;

class ClosedLoop {
 public:
  ClosedLoop(const Args& args, const Inputs& inputs,
             const mdisc::DiscoveryEngine& engine, RunResult* result)
      : args_(args),
        inputs_(inputs),
        engine_(engine),
        result_(result),
        method_(args.spec->method),
        fresh_(inputs, Mix(args.seed, 5)) {
    options_.top_k = 10;
  }

  void Run() {
    Warmup();
    TimedLoop();
    CheckAnswers();
    // Judged texts are distinct and fresh texts are drawn against every
    // text handed out, so the repeat share is 0 by construction.
    std::fprintf(stderr, "workload %s: %s | repeat_share=0\n",
                 args_.spec->name, args_.spec->why);
    if (!fresh_.ok()) result_->Fail("fresh-text set overfull");
    if (args_.trace) {
      ReportQueryLayers(ledger_, result_);
      ledger_.Print(stderr);
      MeasureOverheads(engine_, method_, inputs_.judged, result_);
      return;
    }
    result_->Set("peak_rss_mb", PeakRssMb(), "MB");
    timing_.Report(*args_.spec, result_);
    double ndcg = 0.0;
    for (size_t j = 0; j < inputs_.judged.size(); ++j) {
      ndcg += inputs_.Ndcg10(inputs_.judged[j], judged_top_[j]);
    }
    result_->Set("ndcg10", ndcg / static_cast<double>(inputs_.judged.size()),
                 "ndcg");
  }

 private:
  // One request in the run's mode; false when the call failed.
  bool Search(const std::string& text, bool traced, mdisc::Ranking* out) {
    if (!traced) {
      auto ranking = engine_.Search(method_, text, options_);
      if (!ranking.ok()) return false;
      *out = ranking.MoveValue();
      return true;
    }
    const double start = Now();
    auto traced_ranking = engine_.SearchTraced(method_, text, options_);
    const double duration_ms = (Now() - start) * 1e3;
    if (!traced_ranking.ok()) return false;
    // Only the timed loop of a traced run feeds the ledger.
    if (record_spans_) {
      const int32_t root = ledger_.Open("bench.search", -1, 0.0, duration_ms);
      ledger_.Graft(root, 0.0, traced_ranking->trace);
      ledger_.Commit();
    }
    *out = std::move(traced_ranking->ranking);
    return true;
  }

  void CheckRanking(const mdisc::Ranking& ranking) {
    for (const auto& hit : ranking) {
      if (hit.relation >= engine_.federation().size()) {
        result_->Fail("relation id out of range");
      }
    }
    if (ranking.degraded) result_->Fail("unbounded query returned degraded");
  }

  void Warmup() {
    std::vector<std::string> batch;
    mdisc::Ranking ranking;
    const double start = Now();
    while (Now() - start < kWarmupSeconds) {
      fresh_.Next(kWarmupBatch, &batch);
      for (const auto& text : batch) {
        if (!Search(text, args_.trace, &ranking)) {
          result_->Fail("warm-up request failed");
        }
      }
    }
  }

  void TimedLoop() {
    const auto& judged = inputs_.judged;
    judged_top_.assign(judged.size(), {});
    std::vector<std::string> texts;
    mdisc::Ranking ranking;
    record_spans_ = args_.trace;
    const double start = Now();
    size_t next_judged = 0;
    // A program fast enough to exhaust the fresh-text set in --seconds ends
    // its timed loop early: every timed text stays distinct.
    while (result_->attempted == 0 || next_judged < judged.size() ||
           (Now() - start < args_.seconds && fresh_.room() >= kBlockSize)) {
      // Compose the block before its clock starts.
      const size_t first_judged = next_judged;
      texts.clear();
      while (texts.size() < kBlockSize && next_judged < judged.size()) {
        texts.push_back(judged[next_judged++].text);
      }
      if (texts.size() < kBlockSize) {
        std::vector<std::string> fresh;
        fresh_.Next(kBlockSize - texts.size(), &fresh);
        for (auto& text : fresh) texts.push_back(std::move(text));
      }

      for (size_t i = 0; i < texts.size(); ++i) {
        const size_t index = result_->attempted++;
        const double start_s = Now();
        const bool ok = Search(texts[i], args_.trace, &ranking);
        const double done_s = Now();
        timing_.Add(start_s, done_s,
                    ok && !ranking.degraded &&
                        (done_s - start_s) * 1e3 <=
                            args_.spec->latency_limit_ms);
        if (!ok) {
          ++result_->failed;
          continue;
        }
        CheckRanking(ranking);
        if (first_judged + i < judged.size()) {
          judged_top_[first_judged + i] = TopIds(ranking);
        }
        if (index % kSampleStride == 0 && samples_.size() < kSampleSize) {
          samples_.push_back({texts[i], TopIds(ranking)});
        }
      }
    }
    record_spans_ = false;
  }

  void CheckAnswers() {
    mdisc::Ranking ranking;
    // Traced and untraced answers agree on every judged query.
    for (size_t j = 0; j < inputs_.judged.size(); ++j) {
      if (!Search(inputs_.judged[j].text, !args_.trace, &ranking)) {
        result_->Fail("judged re-run failed");
      } else if (TopIds(ranking) != judged_top_[j]) {
        result_->Fail("traced and untraced top-10 differ");
      }
    }
    // A fixed sample of timed requests answers the same again.
    for (const auto& [text, top] : samples_) {
      if (!Search(text, args_.trace, &ranking) || TopIds(ranking) != top) {
        result_->Fail("sampled request re-run returned another top-10");
      }
    }
  }

  const Args& args_;
  const Inputs& inputs_;
  const mdisc::DiscoveryEngine& engine_;
  RunResult* result_;
  mdisc::Method method_;
  mdisc::DiscoveryOptions options_;
  FreshQueries fresh_;
  SpanLedger ledger_;
  bool record_spans_ = false;
  TimingSummary timing_;
  std::vector<std::vector<uint32_t>> judged_top_;
  std::vector<std::pair<std::string, std::vector<uint32_t>>> samples_;
};

}  // namespace

void RunClosedLoop(const Args& args, const Inputs& inputs,
                   const mdisc::DiscoveryEngine& engine, RunResult* result) {
  ClosedLoop(args, inputs, engine, result).Run();
}

}  // namespace mirabench
