#include "kgacc/eval/runner.h"

#include <string>
#include <utility>

#include "kgacc/util/failpoint.h"

namespace kgacc {

AuditRunner::AuditRunner(Sampler& sampler, Annotator& annotator,
                         const EvaluationConfig& config, uint64_t seed,
                         Wiring wiring, SessionScratch* scratch)
    : wiring_(std::move(wiring)), annotator_(&annotator) {
  if (wiring_.store != nullptr) {
    stored_.emplace(&annotator, wiring_.store, wiring_.audit_id,
                    wiring_.store_options);
    annotator_ = &*stored_;
    if (wiring_.checkpoint.has_value()) {
      ckpt_.emplace(wiring_.store, wiring_.audit_id, *wiring_.checkpoint);
    }
  }
  session_.emplace(sampler, *annotator_, config, seed, scratch);
  if (wiring_.deadline_seconds > 0.0) budget_start_ = Clock::now();
}

Result<bool> AuditRunner::Resume() {
  if (!ckpt_ || !ckpt_->CanResume() || session_->iterations() != 0 ||
      session_->done()) {
    return false;
  }
  KGACC_RETURN_IF_ERROR(ckpt_->Resume(&*session_));
  snapshot_at_ = session_->iterations();
  snapshot_done_ = session_->done();
  return true;
}

void AuditRunner::SetBudget(uint64_t max_steps, double deadline_seconds) {
  wiring_.max_steps = max_steps;
  wiring_.deadline_seconds = deadline_seconds;
  if (deadline_seconds > 0.0) budget_start_ = Clock::now();
}

RunOutcome AuditRunner::Stop(RunOutcome outcome, Status status) {
  status_ = std::move(status);
  return outcome;
}

RunOutcome AuditRunner::Fail(const char* what, const Status& cause) {
  std::string message = std::string(what) + ": " + cause.message();
  if (wiring_.store != nullptr) {
    const Status wal = wiring_.store->wal_error();
    if (!wal.ok()) {
      message += " (annotation WAL sticky-failed: " + wal.ToString() + ")";
    }
  }
  return Stop(RunOutcome::kFailed, Status(cause.code(), std::move(message)));
}

Status AuditRunner::Snapshot(bool on_cadence) {
  // A population-exhausted step finishes without a new iteration, so the
  // final snapshot differs from the latest one only in `done`.
  if (!ckpt_ || (snapshot_at_ == session_->iterations() &&
                 snapshot_done_ == session_->done())) {
    return Status::OK();
  }
  Status status;
  if (stored_ && !stored_->status().ok()) {
    status = stored_->status();  // Never certify a label the log refused.
  } else {
    const bool was_degraded = ckpt_->degraded();
    const uint64_t written = ckpt_->checkpoints_written();
    status = on_cadence ? ckpt_->OnStep(*session_)
                        : ckpt_->Checkpoint(*session_);
    if (ckpt_->checkpoints_written() != written) {
      snapshot_at_ = session_->iterations();
      snapshot_done_ = session_->done();
    }
    if (status.ok() && ckpt_->degraded() && !was_degraded) {
      status = ckpt_->degraded_cause();  // This snapshot gave up.
    }
  }
  if (!status.ok()) ++checkpoint_failures_;
  return status;
}

std::optional<RunOutcome> AuditRunner::SnapshotOrFail(bool on_cadence) {
  const Status snapshot = Snapshot(on_cadence);
  if (snapshot.ok() || ckpt_->degraded()) return std::nullopt;
  return Fail("checkpoint failed", snapshot);
}

Status AuditRunner::Checkpoint() { return Snapshot(/*on_cadence=*/false); }

std::optional<RunOutcome> AuditRunner::CheckBudget() {
  Status spent;
  if (wiring_.max_steps != 0 &&
      static_cast<uint64_t>(session_->iterations()) >= wiring_.max_steps) {
    spent = Status::DeadlineExceeded(
        "step budget of " + std::to_string(wiring_.max_steps) +
        " steps exhausted");
  } else if (wiring_.deadline_seconds > 0.0 &&
             std::chrono::duration<double>(Clock::now() - budget_start_)
                     .count() > wiring_.deadline_seconds) {
    spent = Status::DeadlineExceeded(
        "wall-clock deadline of " + std::to_string(wiring_.deadline_seconds) +
        "s exceeded");
  } else {
    return std::nullopt;
  }
  // A spent budget parks the session resumable: snapshot the tail steps
  // the cadence skipped.
  if (std::optional<RunOutcome> failed = SnapshotOrFail(false)) {
    return failed;
  }
  return Stop(RunOutcome::kDeadline, std::move(spent));
}

RunOutcome AuditRunner::Finish() {
  Result<EvaluationResult> result = session_->Finish();
  if (!result.ok()) return Fail("finalization failed", result.status());
  result_ = std::move(result).value();
  // Final snapshot: a reopened finished audit restores straight to done
  // and regenerates this report.
  if (std::optional<RunOutcome> failed = SnapshotOrFail(false)) {
    return *failed;
  }
  // Every acknowledged frame settled under its own commit; the flush is
  // the last check that the log still takes writes. A degraded run already
  // reports lost durability, so only a healthy one can fail here.
  const bool degraded = counters().degraded;
  if (wiring_.store != nullptr && !degraded) {
    const Status flushed = wiring_.store->Flush();
    if (!flushed.ok()) return Fail("annotation store flush failed", flushed);
  }
  return Stop(degraded ? RunOutcome::kDegraded : RunOutcome::kDone,
              Status::OK());
}

RunOutcome AuditRunner::Advance(uint64_t n) {
  status_ = Status::OK();
  for (uint64_t i = 0; i < n; ++i) {
    if (session_->done()) {
      // Resumed into a finished snapshot: report without drawing.
      const Result<StepOutcome> snapshot = session_->Step();
      if (snapshot.ok()) last_step_ = *snapshot;
      return Finish();
    }
    if (std::optional<RunOutcome> spent = CheckBudget()) return *spent;
    if (wiring_.gate) {
      Status refused = wiring_.gate();
      if (!refused.ok()) {
        if (std::optional<RunOutcome> failed = SnapshotOrFail(false)) {
          return *failed;
        }
        return Stop(RunOutcome::kParked, std::move(refused));
      }
    }
    if (FailpointHit("service.step")) {
      return Fail("evaluation step failed",
                  Status::Internal("injected step failure (failpoint "
                                   "service.step)"));
    }
    Result<StepOutcome> step = session_->Step();
    if (!step.ok()) return Fail("evaluation step failed", step.status());
    last_step_ = *step;
    // The durability rule: a label the store refused fails the run before
    // anything — hook or snapshot — can build on this step.
    if (stored_ && !stored_->status().ok()) {
      return Fail("annotation store append failed", stored_->status());
    }
    if (wiring_.on_step) {
      const Status hooked = wiring_.on_step(*session_);
      if (!hooked.ok()) return Fail("step hook failed", hooked);
    }
    if (std::optional<RunOutcome> failed = SnapshotOrFail(true)) {
      return *failed;
    }
    if (last_step_.done) return Finish();
  }
  // The n steps ran out; a budget they spent stops the next call.
  return Stop(RunOutcome::kParked, Status::OK());
}

RunCounters AuditRunner::counters() const {
  RunCounters c;
  c.checkpoint_failures = checkpoint_failures_;
  if (stored_) {
    c.store_hits = stored_->store_hits();
    c.oracle_calls = stored_->oracle_calls();
    c.retries = stored_->retries();
    c.store_bytes = stored_->bytes_appended();
  }
  if (ckpt_) {
    c.checkpoints = ckpt_->checkpoints_written();
    c.retries += ckpt_->retries();
    c.store_bytes += ckpt_->bytes_appended();
  }
  if (annotator_->degraded()) {
    c.degraded = true;
    c.degradation_note = annotator_->degradation_note();
  } else if (ckpt_ && ckpt_->degraded()) {
    c.degraded = true;
    c.degradation_note = ckpt_->degraded_cause().ToString();
  }
  return c;
}

}  // namespace kgacc
