// kgbench — the kgacc benchmark.
//
// Runs one workload as a closed loop for a fixed measured window, checks
// every audit's output, and prints each metric by name, unit and sample
// count, ending with one JSON line. The untraced run reports the
// end-to-end metrics; the traced run (--trace 1) alternates untraced and
// traced segments of the same window and reports the per-layer metrics and
// the tracing overhead. README.md defines every workload and metric.
//
//   kgbench --workload batch_mix|durable_batch|daemon_reaudit
//           [--seed N]        workload seed (default 42); every audit's
//                             seed and id is derived from it
//           [--seconds S]     measured window (default 10)
//           [--trace 0|1]     per-layer pass (default 0)
//           [--work-dir DIR]  stores and span files (default
//                             .bench_build/work)
//
// Exit status: 0 when every operation succeeded and every output matched
// its reference, 1 otherwise, 2 on a usage error.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kgacc/kgacc.h"
#include "kgacc/net/client.h"
#include "kgacc/net/server.h"
// Defines the global operator new/delete that count allocations (one
// translation unit per binary).
#include "kgacc/util/alloc_counter.h"

#include "trace.h"

namespace perfbench {
namespace {

using namespace kgacc;

constexpr uint64_t kDefaultSeed = 42;
/// The audited populations are fixed datasets, as in the paper; the
/// workload seed varies the audits (their seeds and so every sample drawn).
/// A population drawn per seed would move every metric with the realised
/// accuracy of a 1,860-fact KG instead of with the code.
constexpr uint64_t kPopulationSeed = 2024;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Latency percentiles are taken per slice of at least this many samples,
/// so a p99 has fifty samples beyond it.
constexpr size_t kMinSliceSamples = 5000;
/// The audit mix of every workload: {Wald, Wilson, CP, aHPD} x {SRS, TWCS}
/// at alpha = epsilon = 0.05, cycled by operation index.
constexpr IntervalMethod kMethods[] = {
    IntervalMethod::kWald, IntervalMethod::kWilson,
    IntervalMethod::kClopperPearson, IntervalMethod::kAhpd};
constexpr const char* kMethodNames[] = {"wald", "wilson", "cp", "ahpd"};
constexpr const char* kDesignNames[] = {"srs", "twcs"};
constexpr int kTwcsSecondStage = 3;
/// Checkpoint cadence longer than any audit: only the final snapshot.
constexpr uint64_t kFinalSnapshotOnly = uint64_t{1} << 40;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

struct MixCell {
  int design;
  int method;
};

MixCell CellOf(uint64_t index) {
  return MixCell{static_cast<int>(index % 2), static_cast<int>((index / 2) % 4)};
}

int CellIndex(uint64_t index) { return static_cast<int>(index % 8); }

EvaluationConfig ConfigFor(int method) {
  EvaluationConfig config;
  config.method = kMethods[method];
  config.alpha = 0.05;
  config.moe_threshold = 0.05;
  return config;
}

/// Restricts the calling thread, and so every thread it creates afterwards,
/// to the last CPU it may run on (the first usually takes the interrupts).
void PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double SecondsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

/// Latency samples, summarised by slices: the samples of consecutive
/// batches (or operations) are pooled until a slice holds at least
/// kMinSliceSamples, the slice's p50 and p99 are kept and its samples
/// dropped. A reported percentile is the median over slices, so a transient
/// stall of the shared host moves one slice, not the reported value, and
/// memory stays bounded however long the window.
class Series {
 public:
  void Add(double x) {
    pending_.push_back(x);
    ++count_;
  }
  /// Closes the open slice if it is full; call at batch boundaries.
  void EndBatch() {
    if (pending_.size() >= kMinSliceSamples) Close();
  }
  /// Merges another series' slices and open samples into this one.
  void Append(const Series& other) {
    slices_.insert(slices_.end(), other.slices_.begin(), other.slices_.end());
    pending_.insert(pending_.end(), other.pending_.begin(),
                    other.pending_.end());
    count_ += other.count_;
    EndBatch();
  }
  size_t size() const { return count_; }
  double P50() const { return Summary(0); }
  double P99() const { return Summary(1); }

 private:
  void Close() {
    slices_.push_back({NearestRank(pending_, 0.50), NearestRank(pending_, 0.99)});
    pending_.clear();
  }
  double Summary(int which) const {
    std::vector<double> values;
    for (const auto& slice : slices_) values.push_back(slice[which]);
    // A window too short to fill one slice reports its open samples.
    if (values.empty() && !pending_.empty()) {
      values.push_back(NearestRank(pending_, which == 0 ? 0.50 : 0.99));
    }
    return Median(values);
  }

  std::vector<double> pending_;
  std::vector<std::array<double, 2>> slices_;
  size_t count_ = 0;
};

constexpr int kMixCells = 8;

/// Step latencies of the audit mix. Its methods differ ~10x in step cost,
/// so the median of all steps falls in the gap between the cheap and the
/// costly methods and jumps with tiny shifts of the mixture; step_p50_us is
/// therefore the median over the eight mix cells of each cell's p50. The
/// p99 is taken over all steps.
class StepLatency {
 public:
  void Add(int cell, double x) {
    all_.Add(x);
    by_cell_[cell].Add(x);
  }
  void EndBatch() {
    all_.EndBatch();
    for (Series& s : by_cell_) s.EndBatch();
  }
  void Append(const StepLatency& other) {
    all_.Append(other.all_);
    for (int c = 0; c < kMixCells; ++c) by_cell_[c].Append(other.by_cell_[c]);
  }
  size_t size() const { return all_.size(); }
  double P50() const {
    std::vector<double> cells;
    for (const Series& s : by_cell_) {
      if (s.size() > 0) cells.push_back(s.P50());
    }
    return Median(cells);
  }
  double P99() const { return all_.P99(); }

 private:
  Series all_;
  std::array<Series, kMixCells> by_cell_;
};

/// 64-bit FNV-1a over every field of an `EvaluationResult`, doubles by bit
/// pattern: equal fingerprints mean byte-identical results.
uint64_t Fingerprint(const EvaluationResult& r) {
  uint64_t h = 1469598103934665603ULL;
  auto bytes = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  auto pod = [&bytes](const auto& v) { bytes(&v, sizeof(v)); };
  pod(r.mu);
  pod(r.interval.lower);
  pod(r.interval.upper);
  pod(r.annotated_triples);
  pod(r.distinct_triples);
  pod(r.distinct_entities);
  pod(r.cost_seconds);
  pod(r.cost_hours);
  pod(r.iterations);
  pod(static_cast<uint64_t>(r.winning_prior));
  pod(r.deff);
  pod(static_cast<uint8_t>(r.converged));
  pod(static_cast<uint8_t>(r.stop_reason));
  pod(static_cast<uint8_t>(r.degraded));
  bytes(r.degradation_note.data(), r.degradation_note.size());
  for (const TracePoint& p : r.trace) {
    pod(p.n);
    pod(p.moe);
    pod(p.mu);
  }
  return h;
}

uint64_t Mix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Process counters read around the measured window.
struct ProcCounters {
  uint64_t read_syscalls = 0;
  uint64_t write_syscalls = 0;
  uint64_t bytes_written = 0;
  uint64_t ctx_switches = 0;

  static ProcCounters Read() {
    ProcCounters c;
    std::ifstream io("/proc/self/io");
    std::string key;
    uint64_t value = 0;
    while (io >> key >> value) {
      if (key == "syscr:") c.read_syscalls = value;
      if (key == "syscw:") c.write_syscalls = value;
      if (key == "wchar:") c.bytes_written = value;
    }
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
      c.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw) +
                       static_cast<uint64_t>(usage.ru_nivcsw);
    }
    return c;
  }
};

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// In-process step latency, recorded by the benchmark's on_step hook.
// ---------------------------------------------------------------------------

/// One worker thread's latency samples (its own vectors: no locking).
struct LatencyLog {
  std::vector<std::pair<int, double>> step_us;  // (mix cell, latency)
  std::vector<double> first_interval_ms;
  /// When this worker finished its previous audit (last on_step of a done
  /// session), the start of its next audit's first-interval clock.
  int64_t free_ns = 0;
};

std::mutex g_latency_mu;
std::vector<std::unique_ptr<LatencyLog>> g_latency_logs;
/// Start of the running RunBatch: the earliest an audit can start.
std::atomic<int64_t> g_batch_start_ns{0};

LatencyLog& Latency() {
  thread_local LatencyLog* log = [] {
    auto owned = std::make_unique<LatencyLog>();
    LatencyLog* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_latency_mu);
    g_latency_logs.push_back(std::move(owned));
    return raw;
  }();
  return *log;
}

/// Moves every worker's samples into `step_us` / `first_ms` (either may be
/// null to discard). Call between batches only.
void DrainLatency(StepLatency* step_us, Series* first_ms) {
  std::lock_guard<std::mutex> lock(g_latency_mu);
  for (auto& log : g_latency_logs) {
    if (step_us != nullptr) {
      for (const auto& [cell, x] : log->step_us) step_us->Add(cell, x);
    }
    if (first_ms != nullptr) {
      for (const double x : log->first_interval_ms) first_ms->Add(x);
    }
    log->step_us.clear();
    log->first_interval_ms.clear();
  }
  if (step_us != nullptr) step_us->EndBatch();
  if (first_ms != nullptr) first_ms->EndBatch();
}

/// Per-job state the on_step hook reads and writes (one job = one thread
/// at a time).
struct JobState {
  uint64_t audit_id = 0;
  int cell = 0;
  int64_t last_step_ns = 0;
  CheckpointManager* checkpoint = nullptr;
};

std::function<Status(const EvaluationSession&)> StepHook(JobState* state) {
  return [state](const EvaluationSession& session) -> Status {
    const int64_t now = NowNs();
    LatencyLog& log = Latency();
    if (state->last_step_ns == 0) {
      const int64_t start =
          std::max(log.free_ns, g_batch_start_ns.load(std::memory_order_relaxed));
      log.first_interval_ms.push_back(static_cast<double>(now - start) * 1e-6);
    } else {
      log.step_us.emplace_back(
          state->cell,
          static_cast<double>(now - state->last_step_ns) * 1e-3);
    }
    state->last_step_ns = now;
    Status status;
    if (state->checkpoint != nullptr) {
      ScopedSpan span(SpanKind::kCheckpoint, state->audit_id);
      status = state->checkpoint->OnStep(session);
    }
    EndStep(state->audit_id);
    if (session.done()) log.free_ns = NowNs();
    return status;
  };
}

// ---------------------------------------------------------------------------
// Results of one run.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples;
};

struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t reconnects = 0;
  uint64_t mismatches = 0;
  bool span_check_ok = true;
  uint64_t result_digest = 0;
};

void AddE2e(RunResult* r, const std::string& name, double value,
            const std::string& unit, uint64_t samples) {
  r->end_to_end.push_back(Metric{name, value, unit, samples});
}

void AddLayer(RunResult* r, const std::string& name, double value,
              const std::string& unit, uint64_t samples = 0) {
  r->per_layer.push_back(Metric{name, value, unit, samples});
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Window accounting shared by every workload.
struct Window {
  /// Operations per second of each untraced / traced batch (in-process) or
  /// time slice (daemon); audits_per_s is the untraced median.
  std::vector<double> rates;
  std::vector<double> traced_rates;
  uint64_t untraced_ops = 0;
  uint64_t traced_ops = 0;
  uint64_t audits = 0;       // completed audits (replays excluded)
  uint64_t triples = 0;      // annotated triples of completed audits
  uint64_t steps = 0;        // framework iterations of completed audits
  uint64_t allocs = 0;       // allocations during untraced segments
  uint64_t alloc_audits = 0;  // audits those allocations served
  StepLatency step_us;
  Series first_interval_ms;
  Series replay_ms;
  HpdSolveStats hpd;
  uint64_t hpd_audits = 0;
  ProcCounters proc_before;
  ProcCounters proc_after;
  uint64_t proc_steps = 0;
};

/// The end-to-end block, identical in shape for every workload.
void EmitEndToEnd(RunResult* r, const std::vector<double>& setup_s,
                  const Window& w) {
  AddE2e(r, "setup_s", Median(setup_s), "s", setup_s.size());
  AddE2e(r, "audits_per_s", Median(w.rates), "1/s", w.untraced_ops);
  AddE2e(r, "triples_per_audit",
         Ratio(static_cast<double>(w.triples), static_cast<double>(w.audits)),
         "count", w.audits);
  AddE2e(r, "step_p50_us", w.step_us.P50(), "us", w.step_us.size());
  AddE2e(r, "step_p99_us", w.step_us.P99(), "us", w.step_us.size());
  AddE2e(r, "first_interval_p50_ms", w.first_interval_ms.P50(),
         "ms", w.first_interval_ms.size());
  AddE2e(r, "first_interval_p99_ms", w.first_interval_ms.P99(),
         "ms", w.first_interval_ms.size());
  AddE2e(r, "replay_p50_ms", w.replay_ms.P50(), "ms",
         w.replay_ms.size());
  AddE2e(r, "replay_p99_ms", w.replay_ms.P99(), "ms",
         w.replay_ms.size());
  AddE2e(r, "peak_rss_mb", PeakRssMb(), "MB", 1);
}

/// Values the per-layer block needs beyond the trace and the window.
struct LayerInputs {
  std::vector<double> kg_build_s;
  std::vector<double> store_open_s;
  // pool (in-process service)
  double pool_run_s = 0.0;
  double pool_capacity_s = 0.0;  // wall x threads
  double pool_submit_s = 0.0;
  double pool_barrier_s = 0.0;
  uint64_t pool_stolen = 0;
  uint64_t pool_batches = 0;
  // store writes
  uint64_t commit_batches = 0;
  uint64_t commit_frames = 0;
  uint64_t commit_syncs = 0;
  uint64_t max_batch_frames = 0;
  uint64_t labels_appended = 0;
  uint64_t label_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t store_steps = 0;
  double space_amp = 0.0;
  uint64_t store_hits = 0;
  uint64_t store_misses = 0;
  // net
  double inprocess_step_p50_us = 0.0;
  bool has_net = false;
  uint64_t busy_retries = 0;
  uint64_t reconnects = 0;
  uint64_t sessions_resumed = 0;
};

/// The per-layer block, identical in shape for every workload (a layer a
/// workload does not exercise reads 0).
void EmitPerLayer(RunResult* r, const TraceTotals& t, const Window& w,
                  const LayerInputs& in) {
  const KindTotals& step = t[SpanKind::kStep];
  const KindTotals& sampling = t[SpanKind::kSampling];
  const KindTotals& store_annotate = t[SpanKind::kStoreAnnotate];
  const KindTotals& oracle = t[SpanKind::kOracle];
  const KindTotals& checkpoint = t[SpanKind::kCheckpoint];
  const double steps = static_cast<double>(step.count);
  auto us_per_step = [steps](int64_t ns) {
    return Ratio(static_cast<double>(ns) * 1e-3, steps);
  };
  // Every span opened inside a step is one of these direct children.
  int64_t children_ns = 0;
  for (const KindTotals& k : t.kinds) children_ns += k.in_step_ns;
  r->span_check_ok = step.total_ns == step.self_ns + children_ns;

  AddLayer(r, "kg.build_s", Median(in.kg_build_s), "s", in.kg_build_s.size());
  AddLayer(r, "sampling.us_per_call",
           Ratio(static_cast<double>(sampling.total_ns) * 1e-3,
                 static_cast<double>(sampling.count)),
           "us", sampling.count);
  AddLayer(r, "sampling.share_of_step",
           Ratio(static_cast<double>(sampling.in_step_ns),
                 static_cast<double>(step.total_ns)),
           "ratio", step.count);
  AddLayer(r, "eval.step_us", us_per_step(step.total_ns), "us", step.count);
  AddLayer(r, "eval.step_self_us", us_per_step(step.self_ns), "us",
           step.count);
  AddLayer(r, "eval.sampling_us_per_step", us_per_step(sampling.in_step_ns),
           "us", step.count);
  AddLayer(r, "eval.annotate_us_per_step",
           us_per_step(store_annotate.in_step_ns + oracle.in_step_ns), "us",
           step.count);
  AddLayer(r, "eval.checkpoint_us_per_step",
           us_per_step(checkpoint.in_step_ns), "us", step.count);
  AddLayer(r, "eval.steps_per_audit",
           Ratio(static_cast<double>(w.steps), static_cast<double>(w.audits)),
           "count", w.audits);
  AddLayer(r, "eval.allocs_per_audit",
           Ratio(static_cast<double>(w.allocs),
                 static_cast<double>(w.alloc_audits)),
           "count", w.alloc_audits);
  AddLayer(r, "oracle.us_per_triple",
           Ratio(static_cast<double>(oracle.total_ns) * 1e-3,
                 static_cast<double>(t.oracle_triples)),
           "us", t.oracle_triples);

  const double solves = static_cast<double>(w.hpd.total_solves());
  const double hpd_audits = static_cast<double>(w.hpd_audits);
  AddLayer(r, "intervals.hpd_solves_per_audit", Ratio(solves, hpd_audits),
           "count", w.hpd_audits);
  AddLayer(r, "intervals.beta_evals_per_solve",
           Ratio(static_cast<double>(w.hpd.total_beta_evals()), solves),
           "count", w.hpd.total_solves());
  AddLayer(r, "intervals.newton_share",
           Ratio(static_cast<double>(w.hpd.newton.solves), solves), "ratio",
           w.hpd.total_solves());
  AddLayer(r, "intervals.fallback_solves_per_1k_audits",
           Ratio(1000.0 * static_cast<double>(w.hpd.slsqp_fallback.solves +
                                              w.hpd.onedim.solves),
                 hpd_audits),
           "count", w.hpd_audits);
  AddLayer(r, "intervals.warm_cache_hits_per_1k_audits",
           Ratio(1000.0 * static_cast<double>(w.hpd.warm_cache_hits),
                 hpd_audits),
           "count", w.hpd_audits);

  const double batches = static_cast<double>(in.pool_batches);
  AddLayer(r, "pool.idle_share",
           in.pool_capacity_s > 0.0 ? 1.0 - in.pool_run_s / in.pool_capacity_s
                                    : 0.0,
           "ratio", in.pool_batches);
  AddLayer(r, "pool.submit_s", Ratio(in.pool_submit_s, batches), "s",
           in.pool_batches);
  AddLayer(r, "pool.barrier_s", Ratio(in.pool_barrier_s, batches), "s",
           in.pool_batches);
  AddLayer(r, "pool.stolen_groups",
           Ratio(static_cast<double>(in.pool_stolen), batches), "count",
           in.pool_batches);

  std::vector<double> checkpoint_us;
  for (const int64_t ns : t.checkpoint_ns) {
    checkpoint_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  const double store_steps = static_cast<double>(in.store_steps);
  const double labels = static_cast<double>(in.labels_appended);
  AddLayer(r, "store.annotate_self_us_per_step",
           us_per_step(store_annotate.self_ns), "us", store_annotate.count);
  AddLayer(r, "store.checkpoint_us_p50", NearestRank(checkpoint_us, 0.50),
           "us", checkpoint_us.size());
  AddLayer(r, "store.checkpoint_us_p99", NearestRank(checkpoint_us, 0.99),
           "us", checkpoint_us.size());
  AddLayer(r, "store.checkpoint_bytes_per_step",
           Ratio(static_cast<double>(in.checkpoint_bytes), store_steps),
           "bytes", in.store_steps);
  AddLayer(r, "store.fsyncs_per_label",
           Ratio(static_cast<double>(in.commit_syncs), labels), "ratio",
           in.labels_appended);
  AddLayer(r, "store.frames_per_commit",
           Ratio(static_cast<double>(in.commit_frames),
                 static_cast<double>(in.commit_batches)),
           "count", in.commit_batches);
  AddLayer(r, "store.max_batch_frames",
           static_cast<double>(in.max_batch_frames), "count");
  AddLayer(r, "store.bytes_per_label",
           Ratio(static_cast<double>(in.label_bytes), labels), "bytes",
           in.labels_appended);
  AddLayer(r, "store.space_amp", in.space_amp, "ratio");
  AddLayer(r, "store.hit_ratio",
           Ratio(static_cast<double>(in.store_hits),
                 static_cast<double>(in.store_hits + in.store_misses)),
           "ratio", in.store_hits + in.store_misses);
  AddLayer(r, "store.open_s", Median(in.store_open_s), "s",
           in.store_open_s.size());

  const double proc_steps = static_cast<double>(w.proc_steps);
  const double net_self =
      in.has_net ? w.step_us.P50() - in.inprocess_step_p50_us : 0.0;
  AddLayer(r, "net.self_us_per_step", net_self, "us", w.step_us.size());
  AddLayer(r, "proc.read_syscalls_per_step",
           Ratio(static_cast<double>(w.proc_after.read_syscalls -
                                     w.proc_before.read_syscalls),
                 proc_steps),
           "count", w.proc_steps);
  AddLayer(r, "proc.write_syscalls_per_step",
           Ratio(static_cast<double>(w.proc_after.write_syscalls -
                                     w.proc_before.write_syscalls),
                 proc_steps),
           "count", w.proc_steps);
  AddLayer(r, "proc.bytes_written_per_step",
           Ratio(static_cast<double>(w.proc_after.bytes_written -
                                     w.proc_before.bytes_written),
                 proc_steps),
           "bytes", w.proc_steps);
  AddLayer(r, "proc.ctx_switches_per_step",
           Ratio(static_cast<double>(w.proc_after.ctx_switches -
                                     w.proc_before.ctx_switches),
                 proc_steps),
           "count", w.proc_steps);
  AddLayer(r, "net.busy_retries", static_cast<double>(in.busy_retries),
           "count");
  AddLayer(r, "net.reconnects", static_cast<double>(in.reconnects), "count");
  AddLayer(r, "daemon.sessions_resumed",
           static_cast<double>(in.sessions_resumed), "count");

  const double untraced_rate = Median(w.rates);
  const double traced_rate = Median(w.traced_rates);
  AddLayer(r, "trace.overhead",
           untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0,
           "ratio", w.traced_ops);
}

/// `AnnotationStore::Open`, timed into `*open_s` and, in the traced run,
/// recorded as a span (set-up runs with tracing off otherwise).
Result<std::unique_ptr<AnnotationStore>> OpenStore(
    const std::string& path, const AnnotationStore::Options& options,
    bool trace, std::vector<double>* open_s) {
  SetTracing(trace);
  const int64_t start = NowNs();
  Result<std::unique_ptr<AnnotationStore>> store = [&] {
    ScopedSpan span(SpanKind::kStoreOpen);
    return AnnotationStore::Open(path, options);
  }();
  open_s->push_back(SecondsBetween(start, NowNs()));
  SetTracing(false);
  return store;
}

// ---------------------------------------------------------------------------
// In-process workloads: batch_mix and durable_batch.
// ---------------------------------------------------------------------------

/// One set-up of an in-process workload: the population, the design
/// prototypes (plain and timed), an optional store, and the service.
struct InProcessEnv {
  std::unique_ptr<SyntheticKg> kg;
  std::unique_ptr<Sampler> plain[2];
  std::unique_ptr<TimedSampler> timed[2];
  std::unique_ptr<AnnotationStore> store;
  std::unique_ptr<EvaluationService> service;
  double kg_build_s = 0.0;

  const Sampler* Prototype(int design, bool traced) const {
    return traced ? static_cast<const Sampler*>(timed[design].get())
                  : plain[design].get();
  }
};

/// `store_path` empty: no store. Store open times go to `*open_s`.
Result<std::unique_ptr<InProcessEnv>> BuildInProcessEnv(
    const DatasetProfile& profile, uint64_t seed, int threads,
    const std::string& store_path, bool trace, std::vector<double>* open_s) {
  auto env = std::make_unique<InProcessEnv>();
  const int64_t kg_start = NowNs();
  Result<SyntheticKg> kg = MakeKg(profile, seed);
  if (!kg.ok()) return kg.status();
  env->kg = std::make_unique<SyntheticKg>(std::move(kg).value());
  env->plain[0] = std::make_unique<SrsSampler>(*env->kg, SrsConfig{});
  env->plain[1] = std::make_unique<TwcsSampler>(
      *env->kg, TwcsConfig{.second_stage_size = kTwcsSecondStage});
  env->kg_build_s = SecondsBetween(kg_start, NowNs());
  for (int d = 0; d < 2; ++d) {
    env->timed[d] = std::make_unique<TimedSampler>(env->plain[d].get());
  }
  if (!store_path.empty()) {
    std::filesystem::remove(store_path);
    AnnotationStore::Options options;
    options.sync_checkpoints = true;  // kgaccd's durability default
    auto store = OpenStore(store_path, options, trace, open_s);
    if (!store.ok()) return store.status();
    env->store = std::move(store).value();
  }
  env->service = std::make_unique<EvaluationService>(
      EvaluationService::Options{.num_threads = threads});
  for (int d = 0; d < 2; ++d) {
    env->service->RegisterPrototype(env->plain[d].get());
    env->service->RegisterPrototype(env->timed[d].get());
  }
  return env;
}

/// Folds one RunBatch into the window and the pool counters.
void AccountBatch(const EvaluationBatchResult& batch, bool traced,
                  int64_t elapsed_ns, uint64_t allocs, Window* w,
                  LayerInputs* in) {
  uint64_t ok = 0;
  for (const EvaluationJobOutcome& out : batch.outcomes) {
    if (!out.status.ok()) continue;
    ++ok;
    w->triples += out.result.annotated_triples;
    w->steps += static_cast<uint64_t>(out.result.iterations);
  }
  w->audits += ok;
  w->proc_steps = w->steps;
  w->hpd += batch.stats.hpd;
  w->hpd_audits += ok;
  const double rate =
      Ratio(static_cast<double>(ok), SecondsBetween(0, elapsed_ns));
  if (traced) {
    w->traced_rates.push_back(rate);
    w->traced_ops += ok;
  } else {
    w->rates.push_back(rate);
    w->untraced_ops += ok;
    w->allocs += allocs;
    w->alloc_audits += ok;
  }
  const ServiceBatchStats& s = batch.stats;
  in->pool_run_s += s.run_seconds;
  in->pool_capacity_s += s.wall_seconds * s.num_threads;
  in->pool_submit_s += s.submit_seconds;
  in->pool_barrier_s += s.barrier_seconds;
  in->pool_stolen += s.stolen_groups;
  ++in->pool_batches;
}

/// Runs one batch with tracing set as asked; returns its wall time.
int64_t TimedRunBatch(EvaluationService& service,
                      const std::vector<EvaluationJob>& jobs, bool traced,
                      EvaluationBatchResult* out, uint64_t* allocs) {
  SetTracing(traced);
  const uint64_t allocs_before = alloc_counter::Current();
  const int64_t start = NowNs();
  g_batch_start_ns.store(start, std::memory_order_relaxed);
  {
    ScopedSpan span(SpanKind::kServiceBatch);
    *out = service.RunBatch(jobs);
  }
  const int64_t elapsed = NowNs() - start;
  *allocs = alloc_counter::Current() - allocs_before;
  SetTracing(false);
  return elapsed;
}

/// batch_mix: a fixed set of 2048 store-less audits on the NELL-profile
/// population, run back to back on a one-worker service.
RunResult RunBatchMix(const Args& args) {
  constexpr size_t kJobs = 2048;
  RunResult r;
  OracleAnnotator oracle;
  TimedAnnotator timed_oracle(&oracle, SpanKind::kOracle);
  std::vector<JobState> states(kJobs);
  std::unique_ptr<InProcessEnv> env;
  std::vector<EvaluationJob> jobs[2];  // [traced]
  std::vector<uint64_t> reference;
  std::vector<double> setup_s;
  LayerInputs in;

  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t start = NowNs();
    jobs[0].clear();
    jobs[1].clear();
    env.reset();
    auto built = BuildInProcessEnv(NellProfile(), kPopulationSeed, 1, "",
                                   args.trace, &in.store_open_s);
    if (!built.ok()) {
      std::fprintf(stderr, "setup: %s\n", built.status().ToString().c_str());
      ++r.failed;
      return r;
    }
    env = std::move(built).value();
    for (int traced = 0; traced < 2; ++traced) {
      for (size_t i = 0; i < kJobs; ++i) {
        const MixCell cell = CellOf(i);
        states[i].audit_id = i + 1;
        states[i].cell = CellIndex(i);
        EvaluationJob job;
        job.sampler = env->Prototype(cell.design, traced != 0);
        job.annotator = traced != 0 ? static_cast<Annotator*>(&timed_oracle)
                                    : &oracle;
        job.config = ConfigFor(cell.method);
        job.seed = EvaluationService::DeriveJobSeed(args.seed, i);
        job.on_step = StepHook(&states[i]);
        jobs[traced].push_back(std::move(job));
      }
    }
    // The warm-up batch fills the worker's caches and fixes each audit's
    // reference result; every later batch must reproduce it.
    for (JobState& s : states) s.last_step_ns = 0;
    const EvaluationBatchResult warm = env->service->RunBatch(jobs[0]);
    std::vector<uint64_t> fingerprints(kJobs, 0);
    for (size_t i = 0; i < kJobs; ++i) {
      if (!warm.outcomes[i].status.ok()) {
        std::fprintf(stderr, "setup audit %zu: %s\n", i,
                     warm.outcomes[i].status.ToString().c_str());
        ++r.failed;
        continue;
      }
      fingerprints[i] = Fingerprint(warm.outcomes[i].result);
    }
    if (reference.empty()) {
      reference = fingerprints;
    } else if (fingerprints != reference) {
      ++r.mismatches;
    }
    setup_s.push_back(SecondsBetween(start, NowNs()));
    in.kg_build_s.push_back(env->kg_build_s);
  }
  DrainLatency(nullptr, nullptr);

  Window w;
  w.proc_before = ProcCounters::Read();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (uint64_t b = 0; NowNs() < deadline; ++b) {
    const bool traced = args.trace && b % 2 == 1;
    for (JobState& s : states) s.last_step_ns = 0;
    EvaluationBatchResult batch;
    uint64_t allocs = 0;
    const int64_t elapsed =
        TimedRunBatch(*env->service, jobs[traced], traced, &batch, &allocs);
    r.attempted += kJobs;
    for (size_t i = 0; i < kJobs; ++i) {
      const EvaluationJobOutcome& out = batch.outcomes[i];
      if (!out.status.ok() || out.degraded) {
        ++r.failed;
      } else if (Fingerprint(out.result) != reference[i]) {
        ++r.mismatches;
      } else {
        ++r.completed;
      }
    }
    AccountBatch(batch, traced, elapsed, allocs, &w, &in);
    DrainLatency(traced ? nullptr : &w.step_us,
                 traced ? nullptr : &w.first_interval_ms);
  }
  w.proc_after = ProcCounters::Read();

  // Replay: the in-memory service keeps no finished audit, so a report is
  // rebuilt by re-running the audit (`RunEvaluation`, same inputs); it must
  // reproduce the reference byte for byte. Five passes give ten slices.
  constexpr int kReplayPasses = 5;
  for (size_t n = 0; n < kJobs * kReplayPasses; ++n) {
    const size_t i = n % kJobs;
    const MixCell cell = CellOf(i);
    const int64_t start = NowNs();
    std::unique_ptr<Sampler> sampler = env->plain[cell.design]->Clone();
    auto result = RunEvaluation(*sampler, oracle, ConfigFor(cell.method),
                                EvaluationService::DeriveJobSeed(args.seed, i));
    const int64_t now = NowNs();
    w.replay_ms.Add(static_cast<double>(now - start) * 1e-6);
    w.replay_ms.EndBatch();
    if (!result.ok() || Fingerprint(*result) != reference[i]) ++r.mismatches;
  }
  for (const uint64_t fp : reference) r.result_digest = Mix64(r.result_digest, fp);

  EmitEndToEnd(&r, setup_s, w);
  EmitPerLayer(&r, CollectTrace(), w, in);
  return r;
}

/// One durable job's store-backed annotator, checkpoint manager and timing
/// decorator, built as `EvaluationService` builds them for `job.store`.
struct DurableJob {
  DurableJob(Annotator* inner, AnnotationStore* store, uint64_t audit_id)
      : stored(inner, store, audit_id),
        checkpoint(store, audit_id, CheckpointOptions{}),
        timed(&stored, SpanKind::kStoreAnnotate) {
    state.audit_id = audit_id;
    state.cell = CellIndex(audit_id - 1);
    state.checkpoint = &checkpoint;
  }
  StoredAnnotator stored;
  CheckpointManager checkpoint;
  TimedAnnotator timed;
  JobState state;
};

struct DurableRecord {
  uint64_t index;
  uint64_t audit_id;
  uint64_t seed;
  uint64_t fingerprint;
};

/// durable_batch: fresh audits of the 101M-triple SYN profile on nproc
/// workers over one shared store, flushed per label and fsynced per
/// checkpoint, one checkpoint per step.
RunResult RunDurableBatch(const Args& args) {
  constexpr size_t kBatch = 64;
  constexpr size_t kWarmupJobs = 16;
  constexpr uint64_t kFirstWindowIndex = 1000000;
  const int threads = Nproc();
  RunResult r;
  OracleAnnotator oracle;
  TimedAnnotator timed_oracle(&oracle, SpanKind::kOracle);
  const std::string dir =
      args.work_dir + "/durable-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string store_path = dir + "/labels.wal";
  std::unique_ptr<InProcessEnv> env;
  std::vector<double> setup_s;
  LayerInputs in;

  auto make_jobs = [&](uint64_t first_index, size_t n, bool traced,
                       std::vector<std::unique_ptr<DurableJob>>* owned,
                       std::vector<EvaluationJob>* jobs) {
    owned->clear();
    jobs->clear();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t index = first_index + i;
      const MixCell cell = CellOf(index);
      owned->push_back(std::make_unique<DurableJob>(
          traced ? static_cast<Annotator*>(&timed_oracle) : &oracle,
          env->store.get(), index + 1));
      DurableJob& dj = *owned->back();
      EvaluationJob job;
      job.sampler = env->Prototype(cell.design, traced);
      job.annotator = traced ? static_cast<Annotator*>(&dj.timed) : &dj.stored;
      job.config = ConfigFor(cell.method);
      job.seed = EvaluationService::DeriveJobSeed(args.seed, index);
      job.on_step = StepHook(&dj.state);
      jobs->push_back(std::move(job));
    }
  };
  auto job_ok = [](const EvaluationJobOutcome& out, const DurableJob& dj) {
    return out.status.ok() && !out.degraded && dj.stored.status().ok() &&
           !dj.stored.degraded() && !dj.checkpoint.degraded();
  };

  std::vector<std::unique_ptr<DurableJob>> owned;
  std::vector<EvaluationJob> jobs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t start = NowNs();
    jobs.clear();
    owned.clear();
    env.reset();
    auto built = BuildInProcessEnv(Syn100MProfile(0.9), kPopulationSeed,
                                   threads, store_path, args.trace,
                                   &in.store_open_s);
    if (!built.ok()) {
      std::fprintf(stderr, "setup: %s\n", built.status().ToString().c_str());
      ++r.failed;
      return r;
    }
    env = std::move(built).value();
    make_jobs(0, kWarmupJobs, false, &owned, &jobs);
    const EvaluationBatchResult warm = env->service->RunBatch(jobs);
    for (size_t i = 0; i < kWarmupJobs; ++i) {
      if (!job_ok(warm.outcomes[i], *owned[i])) ++r.failed;
    }
    setup_s.push_back(SecondsBetween(start, NowNs()));
    in.kg_build_s.push_back(env->kg_build_s);
  }
  DrainLatency(nullptr, nullptr);

  Window w;
  std::vector<DurableRecord> records;
  uint64_t next_index = kFirstWindowIndex;
  w.proc_before = ProcCounters::Read();
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (uint64_t b = 0; NowNs() < deadline; ++b) {
    const bool traced = args.trace && b % 2 == 1;
    make_jobs(next_index, kBatch, traced, &owned, &jobs);
    const GroupCommitStats commit_before = env->store->group_commit_stats();
    EvaluationBatchResult batch;
    uint64_t allocs = 0;
    const int64_t elapsed =
        TimedRunBatch(*env->service, jobs, traced, &batch, &allocs);
    const GroupCommitStats commit_after = env->store->group_commit_stats();
    in.commit_batches += commit_after.batches - commit_before.batches;
    in.commit_frames += commit_after.frames - commit_before.frames;
    in.commit_syncs += commit_after.syncs - commit_before.syncs;
    r.attempted += kBatch;
    for (size_t i = 0; i < kBatch; ++i) {
      const EvaluationJobOutcome& out = batch.outcomes[i];
      const DurableJob& dj = *owned[i];
      in.labels_appended += dj.stored.oracle_calls();
      in.label_bytes += dj.stored.bytes_appended();
      in.checkpoint_bytes += dj.checkpoint.bytes_appended();
      in.store_hits += dj.stored.store_hits();
      in.store_misses += dj.stored.oracle_calls();
      if (!job_ok(out, dj)) {
        ++r.failed;
        continue;
      }
      ++r.completed;
      in.store_steps += static_cast<uint64_t>(out.result.iterations);
      records.push_back(DurableRecord{next_index + i, next_index + i + 1,
                                      jobs[i].seed,
                                      Fingerprint(out.result)});
    }
    next_index += kBatch;
    AccountBatch(batch, traced, elapsed, allocs, &w, &in);
    DrainLatency(traced ? nullptr : &w.step_us,
                 traced ? nullptr : &w.first_interval_ms);
  }
  w.proc_after = ProcCounters::Read();
  in.max_batch_frames = env->store->group_commit_stats().max_batch_frames;
  in.space_amp = Ratio(static_cast<double>(env->store->file_bytes()),
                       static_cast<double>(env->store->live_bytes()));
  jobs.clear();
  owned.clear();

  // Output checks: every durable audit equals a store-less run of the same
  // job, and reopening it from its final checkpoint (the report replay)
  // reproduces the same result.
  for (const DurableRecord& rec : records) {
    const MixCell cell = CellOf(rec.index);
    const EvaluationConfig config = ConfigFor(cell.method);
    std::unique_ptr<Sampler> bare = env->plain[cell.design]->Clone();
    auto expected = RunEvaluation(*bare, oracle, config, rec.seed);
    if (!expected.ok() || Fingerprint(*expected) != rec.fingerprint) {
      ++r.mismatches;
      continue;
    }
    const int64_t start = NowNs();
    std::unique_ptr<Sampler> sampler = env->plain[cell.design]->Clone();
    StoredAnnotator stored(&oracle, env->store.get(), rec.audit_id);
    EvaluationSession session(*sampler, stored, config, rec.seed);
    CheckpointManager manager(env->store.get(), rec.audit_id);
    const Status resumed = manager.Resume(&session);
    auto replayed = session.Finish();
    const int64_t now = NowNs();
    w.replay_ms.Add(static_cast<double>(now - start) * 1e-6);
    w.replay_ms.EndBatch();
    if (!resumed.ok() || !replayed.ok() ||
        Fingerprint(*replayed) != rec.fingerprint) {
      ++r.mismatches;
    }
    r.result_digest = Mix64(r.result_digest, rec.fingerprint);
  }

  EmitEndToEnd(&r, setup_s, w);
  EmitPerLayer(&r, CollectTrace(), w, in);
  env.reset();
  std::filesystem::remove_all(dir);
  return r;
}

// ---------------------------------------------------------------------------
// daemon_reaudit: an in-process kgaccd on loopback, re-audits and replays.
// ---------------------------------------------------------------------------

constexpr const char* kKgName = "bench";
constexpr uint64_t kDaemonTargetTriples = 10000;

/// ~10^4 labelled triples in entity clusters of 1-6 facts whose accuracy
/// varies per entity (Beta(8, 1), mean ~0.89).
Result<KnowledgeGraph> MakeDaemonKg(uint64_t seed) {
  Rng rng(EvaluationService::DeriveJobSeed(seed, 0x6b67));
  KnowledgeGraphBuilder builder;
  uint64_t total = 0;
  for (uint64_t s = 0; total < kDaemonTargetTriples; ++s) {
    const uint64_t facts = 1 + rng.UniformInt(6);
    const double accuracy = rng.Beta(8.0, 1.0);
    const std::string subject = "e" + std::to_string(s);
    for (uint64_t o = 0; o < facts; ++o) {
      builder.Add(subject, "p" + std::to_string(o % 5),
                  subject + "_v" + std::to_string(o), rng.Bernoulli(accuracy));
    }
    total += facts;
  }
  return builder.Build();
}

OpenAuditMsg OpenFor(uint64_t audit_id, const MixCell& cell, uint64_t seed) {
  OpenAuditMsg open;
  open.audit_id = audit_id;
  open.kg_name = kKgName;
  open.design = kDesignNames[cell.design];
  open.method = kMethodNames[cell.method];
  open.alpha = 0.05;
  open.epsilon = 0.05;
  open.seed = seed;
  open.twcs_m = kTwcsSecondStage;
  open.checkpoint_every = kFinalSnapshotOnly;
  return open;
}

std::string FindStoreFile(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("kg_", 0) == 0 && entry.path().extension() == ".wal") {
      return entry.path().string();
    }
  }
  return "";
}

struct DaemonEnv {
  std::unique_ptr<KnowledgeGraph> kg;
  AuditDaemon::Options options;
  std::unique_ptr<AuditDaemon> daemon;

  Status Start() {
    daemon = std::make_unique<AuditDaemon>(options);
    daemon->RegisterKg(kKgName, kg.get());
    return daemon->Start();
  }
  void Stop() {
    if (daemon != nullptr) daemon->Stop();
    daemon.reset();
  }
  ~DaemonEnv() { Stop(); }
};

struct NetRecord {
  uint64_t index;
  uint64_t audit_id;
  uint64_t seed;
  uint64_t fingerprint;
};

/// One client thread's closed loop.
struct ClientLoop {
  Window w;
  std::vector<NetRecord> audits;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t mismatches = 0;
  uint64_t reconnects = 0;
  uint64_t busy_retries = 0;
  uint64_t updates = 0;
  uint64_t store_hits = 0;
  uint64_t store_misses = 0;
  /// Completion times of untraced operations, and client time spent in
  /// untraced / traced operations.
  std::vector<int64_t> done_ns;
  int64_t untraced_ns = 0;
  int64_t traced_ns = 0;
};

/// QuotaExceeded, or a Busy the client's backoff budget gave up on.
bool IsRefusal(const Status& status) {
  return status.code() == StatusCode::kQuotaExceeded ||
         (status.code() == StatusCode::kIoError &&
          status.message().find("busy") != std::string::npos);
}

void RunClientLoop(uint16_t port, const Args& args, int client,
                   int64_t deadline, ClientLoop* loop) {
  AuditClientOptions options;
  options.port = port;
  options.batch_steps = 1;
  Rng pick(EvaluationService::DeriveJobSeed(args.seed, 0x7265706c + client));
  const uint64_t id_base = 1000000 + static_cast<uint64_t>(client) * 100000000;
  uint64_t next_audit = 0;
  for (uint64_t k = 0; NowNs() < deadline; ++k) {
    const bool traced = args.trace && (k / 8) % 2 == 1;
    const bool replay = k % 4 == 3 && !loop->audits.empty();
    NetRecord rec{};
    if (replay) {
      rec = loop->audits[pick.UniformInt(loop->audits.size())];
    } else {
      rec.index = next_audit++;
      rec.audit_id = id_base + rec.index;
      rec.seed = EvaluationService::DeriveJobSeed(args.seed, rec.audit_id);
    }
    const OpenAuditMsg open = OpenFor(rec.audit_id, CellOf(rec.index), rec.seed);
    ++loop->attempted;
    AuditClient audit_client(options);
    std::vector<double> steps;
    double first_interval_ms = -1.0;
    int64_t last_ns = 0;
    const int64_t start = NowNs();
    Result<AuditReportMsg> report = Status::Internal("not run");
    {
      std::optional<ScopedSpan> span;
      if (traced) span.emplace(SpanKind::kClientAudit, rec.audit_id);
      report = audit_client.RunAudit(open, [&](const IntervalUpdateMsg&) {
        std::optional<ScopedSpan> update_span;
        if (traced) update_span.emplace(SpanKind::kClientUpdate, rec.audit_id);
        const int64_t now = NowNs();
        if (last_ns == 0) {
          first_interval_ms = static_cast<double>(now - start) * 1e-6;
        } else {
          steps.push_back(static_cast<double>(now - last_ns) * 1e-3);
        }
        last_ns = now;
      });
    }
    const int64_t end = NowNs();
    const int64_t elapsed = end - start;
    const AuditClientStats& stats = audit_client.stats();
    loop->reconnects += stats.reconnects;
    loop->busy_retries += stats.busy_retries;
    loop->updates += stats.updates_received;
    const double inf = std::numeric_limits<double>::infinity();
    if (!report.ok()) {
      std::fprintf(stderr, "audit %llu: %s\n",
                   static_cast<unsigned long long>(rec.audit_id),
                   report.status().ToString().c_str());
      if (IsRefusal(report.status())) {
        ++loop->refused;
      } else {
        ++loop->failed;
      }
      // A refused or failed operation misses every latency limit.
      if (!traced) {
        Series& missed = replay ? loop->w.replay_ms : loop->w.first_interval_ms;
        missed.Add(inf);
        missed.EndBatch();
      }
      continue;
    }
    const uint64_t fingerprint = Fingerprint(report->result);
    if (replay) {
      if (fingerprint != rec.fingerprint) ++loop->mismatches;
    } else {
      rec.fingerprint = fingerprint;
      loop->audits.push_back(rec);
      ++loop->w.audits;
      loop->w.triples += report->result.annotated_triples;
      loop->w.steps += static_cast<uint64_t>(report->result.iterations);
      loop->store_hits += report->store_hits;
      loop->store_misses += report->oracle_calls;
    }
    if (report->degraded) ++loop->failed;
    ++loop->completed;
    if (traced) {
      loop->traced_ns += elapsed;
      ++loop->w.traced_ops;
      continue;
    }
    loop->untraced_ns += elapsed;
    ++loop->w.untraced_ops;
    loop->done_ns.push_back(end);
    if (replay) {
      loop->w.replay_ms.Add(static_cast<double>(elapsed) * 1e-6);
      loop->w.replay_ms.EndBatch();
    } else {
      for (const double x : steps) {
        loop->w.step_us.Add(CellIndex(rec.index), x);
      }
      loop->w.step_us.EndBatch();
      if (first_interval_ms >= 0.0) {
        loop->w.first_interval_ms.Add(first_interval_ms);
        loop->w.first_interval_ms.EndBatch();
      }
    }
  }
}

/// Pre-labelling: pairs of long Wald audits (epsilon 0.004, ~23k draws
/// each) until an audit opens on a store that already labels every triple.
/// Coupon-collector coverage of 10^4 triples takes ~3 pairs.
constexpr int kMaxPrelabelRounds = 12;

/// Runs one pre-labelling pair; `*covered` reports whether either audit
/// opened on a fully labelled store.
Status PrelabelRound(uint16_t port, uint64_t seed, uint64_t round,
                     uint64_t num_triples,
                     std::vector<std::pair<OpenAuditMsg, uint64_t>>* done,
                     bool* covered) {
  std::vector<std::thread> threads;
  std::vector<Result<AuditReportMsg>> reports(
      2, Result<AuditReportMsg>(Status::Internal("not run")));
  std::vector<uint64_t> labels_on_file(2, 0);
  std::vector<OpenAuditMsg> opens(2);
  for (int c = 0; c < 2; ++c) {
    OpenAuditMsg& open = opens[c];
    open.audit_id = 1 + round * 2 + static_cast<uint64_t>(c);
    open.kg_name = kKgName;
    open.design = "srs";
    open.method = "wald";
    open.epsilon = 0.004;
    open.seed = EvaluationService::DeriveJobSeed(seed, open.audit_id);
    open.checkpoint_every = kFinalSnapshotOnly;
    threads.emplace_back([&, c] {
      AuditClientOptions options;
      options.port = port;
      options.batch_steps = 1024;
      AuditClient client(options);
      reports[c] = client.RunAudit(opens[c]);
      labels_on_file[c] = client.stats().opened.labels_on_file;
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < 2; ++c) {
    if (!reports[c].ok()) return reports[c].status();
    done->emplace_back(opens[c], Fingerprint(reports[c]->result));
    if (labels_on_file[c] == num_triples) *covered = true;
  }
  return Status::OK();
}

RunResult RunDaemonReaudit(const Args& args) {
  const int half = std::max(1, Nproc() / 2);
  // Every step is a handful of thread hand-offs (client, poll loop, worker
  // and back). On a shared VM a hand-off that wakes an idle vCPU costs a
  // host-dependent delay, which moved this workload's audits/s 2.5x between
  // runs; on one CPU the hand-offs are context switches and the metrics
  // measure the daemon's own work. The thread counts stay nproc/2.
  PinToOneCpu();
  RunResult r;
  LayerInputs in;
  std::vector<double> setup_s;
  const std::string store_dir =
      args.work_dir + "/daemon-" + std::to_string(::getpid());
  DaemonEnv env;

  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t start = NowNs();
    env.Stop();
    env.kg.reset();
    std::filesystem::remove_all(store_dir);
    std::filesystem::create_directories(store_dir);
    const int64_t kg_start = NowNs();
    auto kg = MakeDaemonKg(kPopulationSeed);
    if (!kg.ok()) {
      std::fprintf(stderr, "setup: %s\n", kg.status().ToString().c_str());
      ++r.failed;
      return r;
    }
    env.kg = std::make_unique<KnowledgeGraph>(std::move(kg).value());
    in.kg_build_s.push_back(SecondsBetween(kg_start, NowNs()));
    env.options = AuditDaemon::Options{};
    env.options.port = 0;
    env.options.store_dir = store_dir;
    env.options.workers = half;
    // The read path is the point of this workload: snapshots are written
    // but not fsynced, so the disk does not set its latencies (the fsync
    // path is durable_batch's).
    env.options.sync_checkpoints = false;

    // Label every triple through the daemon, stop it, and reopen the log
    // offline to confirm the coverage (and time the store's replay).
    std::vector<std::pair<OpenAuditMsg, uint64_t>> prelabelled;
    bool covered = false;
    Status status = env.Start();
    for (uint64_t round = 0;
         status.ok() && !covered && round < kMaxPrelabelRounds; ++round) {
      status = PrelabelRound(env.daemon->port(), args.seed, round,
                             env.kg->num_triples(), &prelabelled, &covered);
    }
    env.Stop();
    if (status.ok()) {
      auto store = OpenStore(FindStoreFile(store_dir), {}, args.trace,
                             &in.store_open_s);
      if (!store.ok()) {
        status = store.status();
      } else {
        if ((*store)->num_labeled() != env.kg->num_triples()) {
          status = Status::Internal("pre-labelling did not cover the KG");
        }
      }
    }
    if (!status.ok()) {
      std::fprintf(stderr, "setup: %s\n", status.ToString().c_str());
      ++r.failed;
      return r;
    }
    // Restart on the same store and reopen one finished audit, which
    // replays the log.
    status = env.Start();
    if (status.ok()) {
      AuditClientOptions options;
      options.port = env.daemon->port();
      AuditClient client(options);
      auto report = client.RunAudit(prelabelled.front().first);
      if (!report.ok()) {
        status = report.status();
      } else if (Fingerprint(report->result) != prelabelled.front().second) {
        ++r.mismatches;
      }
    }
    if (!status.ok()) {
      std::fprintf(stderr, "setup: %s\n", status.ToString().c_str());
      ++r.failed;
      return r;
    }
    setup_s.push_back(SecondsBetween(start, NowNs()));
  }

  // The measured window: `half` closed-loop clients.
  SetTracing(args.trace);
  std::vector<ClientLoop> loops(half);
  const uint64_t resumed_before =
      env.daemon->stats().sessions_resumed.load(std::memory_order_relaxed);
  const std::string wal = FindStoreFile(store_dir);
  std::error_code size_error;
  const uintmax_t wal_before = std::filesystem::file_size(wal, size_error);
  const ProcCounters proc_before = ProcCounters::Read();
  const int64_t window_start = NowNs();
  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t deadline = window_start + window_ns;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < half; ++c) {
      threads.emplace_back(RunClientLoop, env.daemon->port(), std::cref(args),
                           c, deadline, &loops[c]);
    }
    for (auto& t : threads) t.join();
  }
  const ProcCounters proc_after = ProcCounters::Read();
  SetTracing(false);
  in.has_net = true;
  in.sessions_resumed =
      env.daemon->stats().sessions_resumed.load(std::memory_order_relaxed) -
      resumed_before;
  // Store writes seen from outside: the log's growth over the window (the
  // re-audits' and replays' final snapshots), before the drain compacts it.
  const uintmax_t wal_after = std::filesystem::file_size(wal, size_error);
  if (!size_error && wal_after >= wal_before) {
    in.checkpoint_bytes = wal_after - wal_before;
  }
  env.Stop();

  Window w;
  w.proc_before = proc_before;
  w.proc_after = proc_after;
  std::vector<NetRecord> audits;
  std::vector<int64_t> done_ns;
  int64_t untraced_ns = 0;
  int64_t traced_ns = 0;
  for (ClientLoop& loop : loops) {
    r.attempted += loop.attempted;
    r.completed += loop.completed;
    r.failed += loop.failed;
    r.refused += loop.refused;
    r.mismatches += loop.mismatches;
    r.reconnects += loop.reconnects;
    in.busy_retries += loop.busy_retries;
    in.reconnects += loop.reconnects;
    in.store_hits += loop.store_hits;
    in.store_misses += loop.store_misses;
    w.proc_steps += loop.updates;
    in.store_steps += loop.updates;
    done_ns.insert(done_ns.end(), loop.done_ns.begin(), loop.done_ns.end());
    untraced_ns += loop.untraced_ns;
    traced_ns += loop.traced_ns;
    w.untraced_ops += loop.w.untraced_ops;
    w.traced_ops += loop.w.traced_ops;
    w.audits += loop.w.audits;
    w.triples += loop.w.triples;
    w.steps += loop.w.steps;
    w.step_us.Append(loop.w.step_us);
    w.first_interval_ms.Append(loop.w.first_interval_ms);
    w.replay_ms.Append(loop.w.replay_ms);
    audits.insert(audits.end(), loop.audits.begin(), loop.audits.end());
  }
  // The clients run concurrently, so throughput is operations completed
  // per second of window: the median over one-second slices, or, when
  // traced and untraced operations interleave, each kind's operations over
  // its share of the clients' time.
  if (!args.trace) {
    const int64_t slices = std::max<int64_t>(1, std::llround(args.seconds));
    const int64_t slice_ns = window_ns / slices;
    std::vector<uint64_t> counts(static_cast<size_t>(slices), 0);
    for (const int64_t t : done_ns) {
      const int64_t k = (t - window_start) / slice_ns;
      if (k >= 0 && k < slices) ++counts[static_cast<size_t>(k)];
    }
    for (const uint64_t c : counts) {
      w.rates.push_back(static_cast<double>(c) /
                        SecondsBetween(0, slice_ns));
    }
  } else if (untraced_ns + traced_ns > 0) {
    const double untraced_share = static_cast<double>(untraced_ns) /
                                  static_cast<double>(untraced_ns + traced_ns);
    w.rates.push_back(Ratio(static_cast<double>(w.untraced_ops),
                            args.seconds * untraced_share));
    w.traced_rates.push_back(Ratio(static_cast<double>(w.traced_ops),
                                   args.seconds * (1.0 - untraced_share)));
  }

  // Networked equals local: every re-audit's report must equal an
  // in-process `RunEvaluation` of the same (KG, design, method, seed).
  OracleAnnotator oracle;
  for (const NetRecord& rec : audits) {
    const MixCell cell = CellOf(rec.index);
    auto sampler = MakeSamplerForDesign(*env.kg, kDesignNames[cell.design],
                                        kTwcsSecondStage);
    if (!sampler.ok()) {
      ++r.mismatches;
      continue;
    }
    auto expected =
        RunEvaluation(**sampler, oracle, ConfigFor(cell.method), rec.seed);
    if (!expected.ok() || Fingerprint(*expected) != rec.fingerprint) {
      ++r.mismatches;
    }
    r.result_digest = Mix64(r.result_digest, rec.fingerprint);
  }

  if (args.trace) {
    // The in-process reference of the same audits: first untraced, timing
    // each step as the on_step hook does (the base of
    // net.self_us_per_step), then traced with the timing wrappers.
    StepLatency inprocess_step_us;
    const uint64_t allocs_before = alloc_counter::Current();
    for (const NetRecord& rec : audits) {
      const MixCell cell = CellOf(rec.index);
      auto sampler = MakeSamplerForDesign(*env.kg, kDesignNames[cell.design],
                                          kTwcsSecondStage);
      if (!sampler.ok()) continue;
      EvaluationSession session(**sampler, oracle, ConfigFor(cell.method),
                                rec.seed);
      int64_t last = 0;
      while (!session.done()) {
        if (!session.Step().ok()) break;
        const int64_t now = NowNs();
        if (last != 0) {
          inprocess_step_us.Add(CellIndex(rec.index),
                                static_cast<double>(now - last) * 1e-3);
        }
        last = now;
      }
      inprocess_step_us.EndBatch();
    }
    w.allocs = alloc_counter::Current() - allocs_before;
    w.alloc_audits = audits.size();
    in.inprocess_step_p50_us = inprocess_step_us.P50();

    ResetThreadHpdStats();
    SetTracing(true);
    TimedAnnotator timed_oracle(&oracle, SpanKind::kOracle);
    for (const NetRecord& rec : audits) {
      const MixCell cell = CellOf(rec.index);
      auto sampler = MakeSamplerForDesign(*env.kg, kDesignNames[cell.design],
                                          kTwcsSecondStage);
      if (!sampler.ok()) continue;
      TimedSampler timed(std::move(sampler).value());
      EvaluationSession session(timed, timed_oracle, ConfigFor(cell.method),
                                rec.seed);
      while (!session.done()) {
        if (!session.Step().ok()) break;
        EndStep(rec.audit_id);
      }
      auto result = session.Finish();
      if (!result.ok() || Fingerprint(*result) != rec.fingerprint) {
        ++r.mismatches;
      }
    }
    SetTracing(false);
    w.hpd = ThreadHpdStatsSnapshot();
    w.hpd_audits = audits.size();
  }

  EmitEndToEnd(&r, setup_s, w);
  // The client threads' spans (RunAudit, on_update) and the reference
  // run's (steps and their children) sit in separate thread logs.
  EmitPerLayer(&r, CollectTrace(), w, in);
  std::filesystem::remove_all(store_dir);
  return r;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e300" : "-1e300";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6g %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kgbench --workload batch_mix|durable_batch|"
                 "daemon_reaudit [--seed N (default %llu)] [--seconds S] "
                 "[--trace 0|1] [--work-dir DIR]\n",
                 static_cast<unsigned long long>(kDefaultSeed));
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const int nproc = Nproc();
  RunResult r;
  if (args.workload == "batch_mix") {
    r = RunBatchMix(args);
  } else if (args.workload == "durable_batch") {
    r = RunDurableBatch(args);
  } else if (args.workload == "daemon_reaudit") {
    r = RunDaemonReaudit(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (r.end_to_end.empty()) return 1;  // set-up failed

  if (args.trace) {
    const std::string path =
        args.work_dir + "/" + args.workload + ".spans.tsv";
    const size_t rows = WriteSpans(path);
    std::printf("spans: %zu rows written to %s\n", rows, path.c_str());
  }
  const uint64_t failed = r.failed + r.refused + r.mismatches;
  const bool correct = failed == 0 && r.span_check_ok;
  std::printf("workload %s  seed %llu  seconds %g  trace %d  nproc %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc);
  PrintMetrics(args.trace ? "end-to-end (untraced segments)" : "end-to-end",
               r.end_to_end);
  if (args.trace) PrintMetrics("per-layer (traced segments)", r.per_layer);
  std::printf("operations: attempted %llu  completed %llu  failed %llu  "
              "refused %llu  mismatched %llu  reconnects %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.refused),
              static_cast<unsigned long long>(r.mismatches),
              static_cast<unsigned long long>(r.reconnects));
  std::printf("failed_share %.6g (%llu of %llu)\n",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(r.attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(r.attempted));
  if (args.trace) {
    std::printf("span check (eval.step = self + children): %s\n",
                r.span_check_ok ? "ok" : "FAILED");
  }
  std::printf("result digest %016llx\n",
              static_cast<unsigned long long>(r.result_digest));

  const std::vector<Metric>& shown = args.trace ? r.per_layer : r.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": " +
            JsonNumber(shown[i].value) + ", \"unit\": \"" + shown[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
