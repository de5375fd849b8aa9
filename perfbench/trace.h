#ifndef KGACC_PERFBENCH_TRACE_H_
#define KGACC_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kgacc/eval/annotator.h"
#include "kgacc/sampling/sampler.h"

/// \file trace.h
/// The benchmark's tracing: spans recorded around the calls the benchmark
/// makes into each kgacc layer's public API, never inside the library.
///
/// Every thread appends to its own log (created on first use and kept until
/// the process exits), so wrappers shared across worker threads need no
/// locking. A log holds per-kind totals (count, inclusive and self time),
/// the span records themselves up to a cap, and a stack of open spans: a
/// span's self time is its duration minus the time of the spans opened
/// inside it on the same thread. Readers merge the logs only while the
/// threads that write them are idle (after `RunBatch` returns, after the
/// client threads are joined).

namespace perfbench {

/// What a span wraps.
enum class SpanKind : uint8_t {
  /// One framework iteration: `Sampler::NextBatch` entry to the end of the
  /// `on_step` hook.
  kStep,
  /// `Sampler::NextBatch`.
  kSampling,
  /// The store-backed annotator (`StoredAnnotator::AnnotateUnit`).
  kStoreAnnotate,
  /// The oracle (`Annotate` / `AnnotateUnit` of the simulation annotator).
  kOracle,
  /// `CheckpointManager::OnStep`.
  kCheckpoint,
  /// `EvaluationService::RunBatch`.
  kServiceBatch,
  /// `AnnotationStore::Open`.
  kStoreOpen,
  /// `AuditClient::RunAudit`.
  kClientAudit,
  /// One `on_update` callback of `AuditClient::RunAudit`.
  kClientUpdate,
  kNumKinds,
};

inline constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kNumKinds);

const char* SpanKindName(SpanKind kind);

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// Turns span recording on or off process-wide. Off, every wrapper is a
/// plain forwarding call.
void SetTracing(bool on);
bool Tracing();

/// Per-kind aggregate over every thread's log.
struct KindTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  /// Time of the kStep span's direct children of this kind (only tallied
  /// for children of a step).
  int64_t in_step_ns = 0;
};

/// Aggregates plus the counters the wrappers keep.
struct TraceTotals {
  std::array<KindTotals, kNumSpanKinds> kinds{};
  /// Triples the kOracle wrappers judged.
  uint64_t oracle_triples = 0;
  /// Durations of every kCheckpoint span, in nanoseconds.
  std::vector<int64_t> checkpoint_ns;

  const KindTotals& operator[](SpanKind k) const {
    return kinds[static_cast<size_t>(k)];
  }
};

/// Merges every thread's log.
TraceTotals CollectTrace();

/// Clears every thread's log (aggregates and retained spans).
void ResetTrace();

/// Writes the retained spans as TSV (kind, start_ns, end_ns, parent row or
/// -1, audit id), one row per span. Returns the rows written.
size_t WriteSpans(const std::string& path);

/// RAII span on the calling thread. A no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint64_t audit_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// Opens the thread's kStep span unless one is already open.
void BeginStep();
/// Closes the thread's open kStep span, stamping `audit_id` on it and on
/// every span recorded inside it.
void EndStep(uint64_t audit_id);

/// Sampler decorator: times `NextBatch` (opening the step span) and
/// forwards every other virtual. `Clone` returns a wrapped clone, so
/// `EvaluationService` clones keep reporting.
class TimedSampler final : public kgacc::Sampler {
 public:
  /// Wraps `inner` without owning it; `inner` must outlive the wrapper.
  explicit TimedSampler(kgacc::Sampler* inner) : inner_(inner) {}
  explicit TimedSampler(std::unique_ptr<kgacc::Sampler> inner)
      : owned_(std::move(inner)), inner_(owned_.get()) {}

  kgacc::Status NextBatch(kgacc::Rng* rng, kgacc::SampleBatch* batch) override;
  void Reset() override { inner_->Reset(); }
  kgacc::EstimatorKind estimator() const override {
    return inner_->estimator();
  }
  const kgacc::KgView& kg() const override { return inner_->kg(); }
  const char* name() const override { return inner_->name(); }
  const std::vector<double>* stratum_weights() const override {
    return inner_->stratum_weights();
  }
  void SaveState(kgacc::ByteWriter* w) const override { inner_->SaveState(w); }
  kgacc::Status LoadState(kgacc::ByteReader* r) override {
    return inner_->LoadState(r);
  }
  std::unique_ptr<kgacc::Sampler> Clone() const override;

 private:
  std::unique_ptr<kgacc::Sampler> owned_;
  kgacc::Sampler* inner_;
};

/// Annotator decorator: times `Annotate` / `AnnotateUnit` under `kind`
/// (kOracle also counts the triples judged) and forwards every other
/// virtual.
class TimedAnnotator final : public kgacc::Annotator {
 public:
  /// `inner` must outlive the wrapper.
  TimedAnnotator(kgacc::Annotator* inner, SpanKind kind)
      : inner_(inner), kind_(kind) {}

  bool Annotate(const kgacc::KgView& kg, const kgacc::TripleRef& ref,
                kgacc::Rng* rng) override;
  uint32_t AnnotateUnit(const kgacc::KgView& kg, uint64_t cluster,
                        std::span<const uint64_t> offsets,
                        kgacc::Rng* rng) override;
  int JudgmentsPerTriple() const override {
    return inner_->JudgmentsPerTriple();
  }
  bool degraded() const override { return inner_->degraded(); }
  std::string degradation_note() const override {
    return inner_->degradation_note();
  }
  void BurnRngDraws(kgacc::Rng* rng) override { inner_->BurnRngDraws(rng); }

 private:
  kgacc::Annotator* inner_;
  SpanKind kind_;
};

}  // namespace perfbench

#endif  // KGACC_PERFBENCH_TRACE_H_
