// The service workload and its calibration: one generator thread sends
// seeded Poisson arrivals from three tenants into a DiscoveryService, spinning
// until each request is due, and times each from when it was due until its
// callback.

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "layers.h"
#include "service/discovery_service.h"
#include "span_ledger.h"
#include "workloads.h"

namespace mirabench {

namespace {

namespace mdisc = mira::discovery;
namespace msvc = mira::service;

/// Offered rate of the service workload: 0.24-0.30x the knee --calibrate
/// measured on a quiet 4-vCPU host (7,251 and 9,107 qps), and below the
/// highest rate that shed nothing with two busy loops competing for the CPUs
/// (2,441 qps both times; knees 3,540 and 4,538).
constexpr double kServiceQps = 2200.0;
/// A run whose generator fell behind its schedule is invalid: when half or
/// more of its requests went out later than kMaxLateP50Ms, or when a tenth
/// or more of the requests of any one timing block went out later than
/// kMaxBlockLateP90Ms (a lag of over 10 ms that lasted 45 ms or more of that
/// block's ~0.45 s, after which its requests went out in a burst). Host
/// stalls, which delay the requests due during them by up to ~25 ms and put
/// a block's p90 at up to ~3.5 ms on a busy host, trip neither; latency
/// counts them from the due time.
constexpr double kMaxLateP50Ms = 1.0;
constexpr double kMaxBlockLateP90Ms = 10.0;
constexpr size_t kTenants = 3;
const char* const kTenantNames[kTenants] = {"tenant-a", "tenant-b", "tenant-c"};

/// What happened to one request; written once by its callback.
struct Record {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  uint32_t query = 0;
  bool timed = false;
  msvc::RequestOutcome outcome = msvc::RequestOutcome::kCompleted;
  msvc::DispatchMode mode = msvc::DispatchMode::kThroughput;
  bool degraded = false;
  bool preempted = false;
  bool in_range = true;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  uint8_t num_top = 0;
  std::array<uint32_t, 10> top{};
  std::atomic<uint32_t> callbacks{0};
};

msvc::ServiceOptions MakeServiceOptions() {
  // nproc - 1 workers: the generator keeps a CPU of its own.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  msvc::ServiceOptions options;
  options.worker_threads = static_cast<size_t>(std::max(1, nproc - 1));
  // Quotas and the queue bound are lifted: overload is not measured here, and
  // with the default bound of 64 a host stall of ~30 ms at this rate shed
  // requests in some runs and not in others. With the bound this high the
  // pressure ladder (at half of it) never engages either.
  options.admission.default_quota.refill_qps = 1e9;
  options.admission.default_quota.burst = 1e9;
  options.admission.max_queue_depth = size_t{1} << 20;
  return options;
}

// The trace of the request a worker just ran, handed from the traced runner
// to the callback that follows it on the same worker thread.
thread_local mira::obs::QueryTrace tls_trace;

/// Sends one seeded Poisson schedule into a started service and collects
/// every callback.
class OpenLoop {
 public:
  OpenLoop(msvc::DiscoveryService* service, const Inputs& inputs,
           size_t num_relations, SpanLedger* ledger)
      : service_(service),
        inputs_(inputs),
        num_relations_(num_relations),
        ledger_(ledger) {}

  /// Arrivals at `qps` for `warmup_s` then `timed_s` seconds.
  void Run(double qps, double warmup_s, double timed_s, uint64_t seed) {
    mira::Rng rng(seed);
    std::vector<double> offsets;
    std::vector<uint32_t> queries;
    for (double t = rng.NextExponential(qps); t < warmup_s + timed_s;
         t += rng.NextExponential(qps)) {
      offsets.push_back(t);
      queries.push_back(
          static_cast<uint32_t>(rng.NextBounded(inputs_.judged.size())));
    }
    records_ = std::make_unique<Record[]>(offsets.size());
    size_ = offsets.size();
    done_.store(0);

    const double origin = Now() + 0.005;
    for (size_t i = 0; i < size_; ++i) {
      Record& record = records_[i];
      record.due_s = origin + offsets[i];
      record.query = queries[i];
      record.timed = offsets[i] >= warmup_s;
      msvc::ServiceRequest request;
      request.tenant = kTenantNames[i % kTenants];
      request.method = mdisc::Method::kAnns;
      request.query = inputs_.judged[record.query].text;
      request.options.top_k = 10;
      while (Now() < record.due_s) {
      }
      record.sent_s = Now();
      service_->Submit(std::move(request),
                       [this, &record](msvc::ServiceResponse response) {
                         OnDone(&record, std::move(response));
                       });
    }
    while (done_.load(std::memory_order_acquire) < size_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  size_t size() const { return size_; }
  const Record& operator[](size_t i) const { return records_[i]; }

 private:
  void OnDone(Record* record, msvc::ServiceResponse response) {
    record->done_s = Now();
    record->outcome = response.outcome;
    record->mode = response.mode;
    record->queue_ms = response.queue_ms;
    record->run_ms = response.run_ms;
    record->preempted = response.preemptively_degraded;
    record->degraded = response.ranking.degraded;
    const std::vector<uint32_t> top = TopIds(response.ranking);
    record->num_top = static_cast<uint8_t>(top.size());
    std::copy(top.begin(), top.end(), record->top.begin());
    for (const auto& hit : response.ranking) {
      if (hit.relation >= num_relations_) record->in_range = false;
    }
    if (ledger_ != nullptr && record->timed &&
        response.outcome == msvc::RequestOutcome::kCompleted) {
      const double late_ms = (record->sent_s - record->due_s) * 1e3;
      const double run_start = late_ms + response.queue_ms;
      std::lock_guard<std::mutex> lock(ledger_mu_);
      const int32_t root = ledger_->Open(
          "service.request", -1, 0.0, (record->done_s - record->due_s) * 1e3);
      ledger_->Open("service.queue", root, late_ms, response.queue_ms);
      const int32_t run =
          ledger_->Open("service.run", root, run_start, response.run_ms);
      ledger_->Graft(run, run_start, tls_trace);
      ledger_->Commit();
    }
    record->callbacks.fetch_add(1, std::memory_order_relaxed);
    done_.fetch_add(1, std::memory_order_release);
  }

  msvc::DiscoveryService* service_;
  const Inputs& inputs_;
  size_t num_relations_;
  SpanLedger* ledger_;
  std::mutex ledger_mu_;
  std::unique_ptr<Record[]> records_;
  size_t size_ = 0;
  std::atomic<size_t> done_{0};
};

/// A started service over `engine`; null when Start() failed.
std::unique_ptr<msvc::DiscoveryService> StartService(
    const mdisc::DiscoveryEngine& engine, bool traced) {
  std::unique_ptr<msvc::DiscoveryService> service;
  if (!traced) {
    service = std::make_unique<msvc::DiscoveryService>(
        &engine, MakeServiceOptions());
  } else {
    // The engine constructor's runner, keeping the span tree for the
    // callback.
    auto runner = [&engine](const msvc::ServiceRequest& request)
        -> mira::Result<mdisc::Ranking> {
      auto traced_ranking =
          engine.SearchTraced(request.method, request.query, request.options);
      if (!traced_ranking.ok()) return traced_ranking.status();
      tls_trace = std::move(traced_ranking->trace);
      return std::move(traced_ranking->ranking);
    };
    service = std::make_unique<msvc::DiscoveryService>(
        runner, MakeServiceOptions());
  }
  return service->Start().ok() ? std::move(service) : nullptr;
}

}  // namespace

bool RunService(const Args& args, const Inputs& inputs,
                const mdisc::DiscoveryEngine& engine, double build_s,
                RunResult* result) {
  // Reference answers (these requests also warm the engine up).
  std::vector<std::vector<uint32_t>> reference;
  mdisc::DiscoveryOptions options;
  options.top_k = 10;
  for (const auto& query : inputs.judged) {
    auto ranking = engine.Search(mdisc::Method::kAnns, query.text, options);
    if (!ranking.ok()) {
      result->Fail("reference search failed");
      reference.emplace_back();
      continue;
    }
    reference.push_back(TopIds(*ranking));
  }

  SpanLedger ledger;
  const double start_begin = Now();
  auto service = StartService(engine, args.trace);
  const double setup_s = build_s + (Now() - start_begin);
  if (service == nullptr) {
    result->Fail("service did not start");
    return true;
  }

  OpenLoop loop(service.get(), inputs, engine.federation().size(),
                args.trace ? &ledger : nullptr);
  loop.Run(kServiceQps, kWarmupSeconds, args.seconds, Mix(args.seed, 4));
  service->Stop();

  // Per-request checks and counts over the timed requests.
  std::vector<double> late_ms, queue_ms, run_ms;
  std::vector<size_t> timed;
  uint64_t shed = 0, evicted = 0, preempted = 0, degraded = 0;
  uint64_t dispatched = 0, fanout = 0, completed = 0;
  double ndcg = 0.0;
  for (size_t i = 0; i < loop.size(); ++i) {
    const Record& record = loop[i];
    if (record.callbacks.load() != 1) {
      result->Fail("request did not get exactly one callback");
    }
    if (!record.in_range) result->Fail("relation id out of range");
    const bool ok = record.outcome == msvc::RequestOutcome::kCompleted;
    const std::vector<uint32_t> top(record.top.begin(),
                                    record.top.begin() + record.num_top);
    if (ok && !record.degraded && top != reference[record.query]) {
      result->Fail("service answer differs from the engine's reference");
    }
    if (!record.timed) continue;
    timed.push_back(i);
    ++result->attempted;
    late_ms.push_back((record.sent_s - record.due_s) * 1e3);
    switch (record.outcome) {
      case msvc::RequestOutcome::kCompleted:
        ++completed;
        break;
      case msvc::RequestOutcome::kRejected:
        ++shed;
        break;
      case msvc::RequestOutcome::kEvicted:
        ++evicted;
        break;
      case msvc::RequestOutcome::kFailed:
        break;
    }
    if (!ok) ++result->failed;
    if (record.outcome != msvc::RequestOutcome::kRejected) {
      ++dispatched;
      queue_ms.push_back(record.queue_ms);
      if (record.mode == msvc::DispatchMode::kFanOut) ++fanout;
    }
    if (ok) {
      run_ms.push_back(record.run_ms);
      ndcg += inputs.Ndcg10(inputs.judged[record.query], top);
    }
    preempted += record.preempted ? 1 : 0;
    degraded += ok && record.degraded ? 1 : 0;
  }

  const double attempted = static_cast<double>(std::max<uint64_t>(1, result->attempted));
  const double late_p50 = Quantile(late_ms, 0.5);
  const double late_p99 = Quantile(late_ms, 0.99);
  double block_late_p90 = 0.0;  // the worst block's
  for (size_t b = 0; b + kBlockSize <= late_ms.size(); b += kBlockSize) {
    block_late_p90 = std::max(
        block_late_p90,
        Quantile({late_ms.begin() + b, late_ms.begin() + b + kBlockSize}, 0.9));
  }
  // Every request's text is a judged query, all sent once in the reference
  // pass above, so the repeat share is 1 by construction.
  std::fprintf(stderr,
               "workload %s: %s | repeat_share=1 offered_qps=%.0f "
               "requests=%llu late_ms p50=%.4f p99=%.4f max=%.4f "
               "worst_block_p90=%.4f\n",
               args.spec->name, args.spec->why, kServiceQps,
               static_cast<unsigned long long>(result->attempted), late_p50,
               late_p99, Quantile(late_ms, 1.0), block_late_p90);
  if (late_p50 > kMaxLateP50Ms || block_late_p90 > kMaxBlockLateP90Ms) {
    std::fprintf(stderr,
                 "error: the load generator fell behind its schedule (late "
                 "p50 %.3f ms, limit %.3f; worst block p90 %.3f ms, limit "
                 "%.3f); the run is invalid\n",
                 late_p50, kMaxLateP50Ms, block_late_p90, kMaxBlockLateP90Ms);
    return false;
  }

  if (args.trace) {
    ReportQueryLayers(ledger, result);
    ledger.Print(stderr);
    const double dispatched_n = static_cast<double>(std::max<uint64_t>(1, dispatched));
    result->Set("service.queue_ms.p50", Quantile(queue_ms, 0.5), "ms");
    result->Set("service.queue_ms.p99", Quantile(queue_ms, 0.99), "ms");
    result->Set("service.run_ms.p50", Quantile(run_ms, 0.5), "ms");
    result->Set("service.run_ms.p99", Quantile(run_ms, 0.99), "ms");
    result->Set("service.shed_frac", static_cast<double>(shed) / attempted, "frac");
    result->Set("service.evicted_frac", static_cast<double>(evicted) / attempted,
                "frac");
    result->Set("service.preempted_frac",
                static_cast<double>(preempted) / attempted, "frac");
    result->Set("service.degraded_frac",
                static_cast<double>(degraded) / attempted, "frac");
    result->Set("service.fanout_frac", static_cast<double>(fanout) / dispatched_n,
                "frac");
    result->Set("loadgen.late_ms.p99", late_p99, "ms");
    MeasureOverheads(engine, mdisc::Method::kAnns, inputs.judged, result);
    return true;
  }

  result->Set("setup_s", setup_s, "s");
  result->Set("peak_rss_mb", PeakRssMb(), "MB");
  TimingSummary timing;
  for (size_t i : timed) {
    const Record& record = loop[i];
    timing.Add(record.due_s, record.done_s,
               record.outcome == msvc::RequestOutcome::kCompleted &&
                   !record.degraded &&
                   (record.done_s - record.due_s) * 1e3 <=
                       args.spec->latency_limit_ms);
  }
  timing.Report(*args.spec, result);
  result->Set("ndcg10",
              ndcg / static_cast<double>(std::max<uint64_t>(1, completed)),
              "ndcg");
  return true;
}

int CalibrateService(const Inputs& inputs,
                     const mdisc::DiscoveryEngine& engine, uint64_t seed) {
  constexpr double kStepSeconds = 3.0;
  std::printf("%10s %12s %10s %10s %10s\n", "offered", "completed",
              "shed_frac", "p50_ms", "p99_ms");
  double knee = 0.0;
  for (double qps = 1000.0; qps < 200000.0; qps *= 1.25) {
    auto service = StartService(engine, false);
    if (service == nullptr) return 1;
    OpenLoop loop(service.get(), inputs, engine.federation().size(), nullptr);
    loop.Run(qps, 0.5, kStepSeconds, Mix(seed, 4));
    service->Stop();
    std::vector<double> latencies;
    size_t completed = 0, timed = 0;
    double first_due = 1e300, last_done = 0.0;
    for (size_t i = 0; i < loop.size(); ++i) {
      if (!loop[i].timed) continue;
      ++timed;
      first_due = std::min(first_due, loop[i].due_s);
      if (loop[i].outcome != msvc::RequestOutcome::kCompleted) continue;
      ++completed;
      last_done = std::max(last_done, loop[i].done_s);
      latencies.push_back((loop[i].done_s - loop[i].due_s) * 1e3);
    }
    const double completed_qps =
        static_cast<double>(completed) / (last_done - first_due);
    const double shed = 1.0 - static_cast<double>(completed) /
                                  static_cast<double>(std::max<size_t>(1, timed));
    std::printf("%10.0f %12.0f %10.4f %10.3f %10.3f\n", qps, completed_qps, shed,
                Quantile(latencies, 0.5), Quantile(latencies, 0.99));
    std::fflush(stdout);
    // The plateau: completions stop keeping up with the offered rate.
    if (completed_qps < 0.9 * qps) break;
    knee = std::max(knee, completed_qps);
  }
  std::printf("knee_qps %.0f (workers %zu)\n", knee,
              MakeServiceOptions().worker_threads);
  return 0;
}

}  // namespace mirabench
