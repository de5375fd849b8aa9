#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {
namespace {

/// Span records kept per thread; beyond it only the aggregates grow, so a
/// long traced run stays bounded in memory and in the written file.
constexpr size_t kMaxRetainedSpansPerThread = size_t{1} << 15;

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  SpanKind kind = SpanKind::kStep;
  uint64_t audit_id = 0;
};

struct OpenSpan {
  SpanKind kind;
  int64_t start_ns;
  int64_t child_ns;
  /// Row in `ThreadLog::spans`, or -1 when past the retention cap.
  int32_t record;
};

struct ThreadLog {
  std::array<KindTotals, kNumSpanKinds> kinds{};
  uint64_t oracle_triples = 0;
  std::vector<int64_t> checkpoint_ns;
  std::vector<SpanRecord> spans;
  std::vector<OpenSpan> stack;
  /// Stack depth of the open kStep span, or -1.
  int step_depth = -1;
  /// First retained row recorded inside the open step.
  size_t step_first_row = 0;
};

std::atomic<bool> g_tracing{false};
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;

ThreadLog& Log() {
  thread_local ThreadLog* log = [] {
    auto owned = std::make_unique<ThreadLog>();
    ThreadLog* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::move(owned));
    return raw;
  }();
  return *log;
}

void Push(ThreadLog& log, SpanKind kind, uint64_t audit_id) {
  int32_t row = -1;
  const int64_t now = NowNs();
  if (log.spans.size() < kMaxRetainedSpansPerThread) {
    row = static_cast<int32_t>(log.spans.size());
    SpanRecord record;
    record.start_ns = now;
    record.parent = log.stack.empty() ? -1 : log.stack.back().record;
    record.kind = kind;
    record.audit_id = audit_id;
    log.spans.push_back(record);
  }
  log.stack.push_back(OpenSpan{kind, now, 0, row});
}

void Pop(ThreadLog& log) {
  const int64_t now = NowNs();
  const OpenSpan open = log.stack.back();
  log.stack.pop_back();
  const int64_t duration = now - open.start_ns;
  KindTotals& totals = log.kinds[static_cast<size_t>(open.kind)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (!log.stack.empty()) {
    OpenSpan& parent = log.stack.back();
    parent.child_ns += duration;
    if (parent.kind == SpanKind::kStep) totals.in_step_ns += duration;
  }
  if (open.kind == SpanKind::kCheckpoint) log.checkpoint_ns.push_back(duration);
  if (open.record >= 0) log.spans[open.record].end_ns = now;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kStep: return "eval.step";
    case SpanKind::kSampling: return "sampling.next_batch";
    case SpanKind::kStoreAnnotate: return "store.annotate";
    case SpanKind::kOracle: return "oracle.annotate";
    case SpanKind::kCheckpoint: return "store.checkpoint";
    case SpanKind::kServiceBatch: return "eval.run_batch";
    case SpanKind::kStoreOpen: return "store.open";
    case SpanKind::kClientAudit: return "net.run_audit";
    case SpanKind::kClientUpdate: return "net.on_update";
    case SpanKind::kNumKinds: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

TraceTotals CollectTrace() {
  TraceTotals out;
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      out.kinds[k].count += log->kinds[k].count;
      out.kinds[k].total_ns += log->kinds[k].total_ns;
      out.kinds[k].self_ns += log->kinds[k].self_ns;
      out.kinds[k].in_step_ns += log->kinds[k].in_step_ns;
    }
    out.oracle_triples += log->oracle_triples;
    out.checkpoint_ns.insert(out.checkpoint_ns.end(),
                             log->checkpoint_ns.begin(),
                             log->checkpoint_ns.end());
  }
  return out;
}

void ResetTrace() {
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (auto& log : g_logs) {
    log->spans.clear();
    log->kinds = {};
    log->oracle_triples = 0;
    log->checkpoint_ns.clear();
    log->stack.clear();
    log->step_depth = -1;
    log->step_first_row = 0;
  }
}

size_t WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "row\tkind\tstart_ns\tend_ns\tparent\taudit_id\n");
  size_t base = 0;
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      const long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(base + s.parent);
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", base + i,
                   SpanKindName(s.kind), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), parent,
                   static_cast<unsigned long long>(s.audit_id));
    }
    base += log->spans.size();
  }
  std::fclose(f);
  return base;
}

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t audit_id) : active_(Tracing()) {
  if (active_) Push(Log(), kind, audit_id);
}

ScopedSpan::~ScopedSpan() {
  if (active_) Pop(Log());
}

void BeginStep() {
  if (!Tracing()) return;
  ThreadLog& log = Log();
  if (log.step_depth >= 0) return;
  log.step_first_row = log.spans.size();
  Push(log, SpanKind::kStep, 0);
  log.step_depth = static_cast<int>(log.stack.size()) - 1;
}

void EndStep(uint64_t audit_id) {
  if (!Tracing()) return;
  ThreadLog& log = Log();
  if (log.step_depth < 0) return;
  // Children always close before the hook that ends the step runs.
  while (static_cast<int>(log.stack.size()) - 1 > log.step_depth) Pop(log);
  Pop(log);
  log.step_depth = -1;
  for (size_t i = log.step_first_row; i < log.spans.size(); ++i) {
    log.spans[i].audit_id = audit_id;
  }
}

kgacc::Status TimedSampler::NextBatch(kgacc::Rng* rng,
                                      kgacc::SampleBatch* batch) {
  BeginStep();
  ScopedSpan span(SpanKind::kSampling);
  return inner_->NextBatch(rng, batch);
}

std::unique_ptr<kgacc::Sampler> TimedSampler::Clone() const {
  std::unique_ptr<kgacc::Sampler> clone = inner_->Clone();
  if (clone == nullptr) return nullptr;
  return std::make_unique<TimedSampler>(std::move(clone));
}

bool TimedAnnotator::Annotate(const kgacc::KgView& kg,
                              const kgacc::TripleRef& ref, kgacc::Rng* rng) {
  ScopedSpan span(kind_);
  if (kind_ == SpanKind::kOracle && Tracing()) ++Log().oracle_triples;
  return inner_->Annotate(kg, ref, rng);
}

uint32_t TimedAnnotator::AnnotateUnit(const kgacc::KgView& kg,
                                      uint64_t cluster,
                                      std::span<const uint64_t> offsets,
                                      kgacc::Rng* rng) {
  ScopedSpan span(kind_);
  if (kind_ == SpanKind::kOracle && Tracing()) {
    Log().oracle_triples += offsets.size();
  }
  return inner_->AnnotateUnit(kg, cluster, offsets, rng);
}

}  // namespace perfbench
