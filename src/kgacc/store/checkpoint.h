#ifndef KGACC_STORE_CHECKPOINT_H_
#define KGACC_STORE_CHECKPOINT_H_

#include <cstdint>

#include "kgacc/eval/session.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/util/status.h"

/// \file checkpoint.h
/// Durable audits: `CheckpointManager` interleaves periodic
/// `EvaluationSession` snapshots with the annotation WAL, and restores the
/// latest one on recovery. The division of labor with the store:
///
/// * every judgment is in the WAL the moment it is made (never lost);
/// * snapshots bound the *recompute* after a crash — the session resumes
///   from the last checkpoint and re-executes the few steps since, whose
///   labels replay from the store at zero oracle cost, landing on the
///   byte-identical report the uninterrupted run would have produced.
///
/// Snapshot cadence is therefore a pure compute/log-size trade: even
/// `every_steps = 1` only appends a few-KB frame per batch, and a cadence
/// of N merely re-runs at most N-1 cheap, already-labeled steps on resume.

namespace kgacc {

/// Snapshot cadence and durability for one audit's checkpoints.
struct CheckpointOptions {
  /// What to do when a snapshot append exhausts its retry budget.
  enum class OnError {
    /// Stop checkpointing, keep auditing: every judgment is still in the
    /// WAL, so the only loss is resume granularity — recovery recomputes
    /// from the last good snapshot at zero oracle cost. `degraded()`
    /// reports the downgrade.
    kDegrade,
    /// Surface the error from `OnStep`/`Checkpoint`; durable drivers abort.
    kFail,
  };

  /// Snapshot after every N-th completed step (>= 1).
  uint64_t every_steps = 1;
  /// Exhausted-retry policy for snapshot appends.
  OnError on_error = OnError::kDegrade;
  /// Retry schedule for transient snapshot-append failures.
  BackoffPolicy backoff;
};

/// Drives checkpointing for one (session, store, audit_id) binding. The
/// session and store must outlive the manager.
class CheckpointManager {
 public:
  CheckpointManager(AnnotationStore* store, uint64_t audit_id,
                    const CheckpointOptions& options = {});

  /// Step hook: snapshots the session when its step count hits the cadence.
  /// `AuditRunner` calls it after every step whose labels reached the log
  /// (or install it via `EvaluationJob::on_step`).
  Status OnStep(const EvaluationSession& session);

  /// Unconditionally snapshots the session now.
  Status Checkpoint(const EvaluationSession& session);

  /// True when the store holds a checkpoint for this audit id (whether it
  /// reads back intact is `Resume`'s to find out).
  bool CanResume() const;

  /// Restores the stored checkpoint into `session` (constructed over the
  /// same design, configuration, and seed — the snapshot fingerprint is
  /// verified). FailedPrecondition when there is nothing to resume from;
  /// IoError when the checkpoint cannot be read back intact.
  Status Resume(EvaluationSession* session) const;

  uint64_t audit_id() const { return audit_id_; }
  uint64_t checkpoints_written() const { return checkpoints_written_; }
  /// Exact on-disk bytes this manager's snapshot appends added to the
  /// store — the checkpoint half of a tenant's store-byte metering.
  uint64_t bytes_appended() const { return bytes_appended_; }

  /// True once snapshotting was abandoned after an exhausted retry budget
  /// (OnError::kDegrade only). The audit keeps running without it.
  bool degraded() const { return degraded_; }
  /// The exhausted error that stopped checkpointing (OK while healthy).
  const Status& degraded_cause() const { return degraded_cause_; }
  /// Snapshot-append retries performed over the manager's lifetime.
  uint64_t retries() const { return retries_; }

 private:
  AnnotationStore* store_;
  uint64_t audit_id_;
  CheckpointOptions options_;
  uint64_t checkpoints_written_ = 0;
  uint64_t bytes_appended_ = 0;
  bool degraded_ = false;
  Status degraded_cause_;
  uint64_t retries_ = 0;
};

}  // namespace kgacc

#endif  // KGACC_STORE_CHECKPOINT_H_
