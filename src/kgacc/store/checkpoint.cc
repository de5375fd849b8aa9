#include "kgacc/store/checkpoint.h"

#include <algorithm>

#include "kgacc/util/codec.h"

namespace kgacc {

CheckpointManager::CheckpointManager(AnnotationStore* store, uint64_t audit_id,
                                     const CheckpointOptions& options)
    : store_(store), audit_id_(audit_id), options_(options) {
  options_.every_steps = std::max<uint64_t>(options_.every_steps, 1);
}

Status CheckpointManager::OnStep(const EvaluationSession& session) {
  const uint64_t steps = static_cast<uint64_t>(session.iterations());
  if (steps == 0 || steps % options_.every_steps != 0) return Status::OK();
  return Checkpoint(session);
}

Status CheckpointManager::Checkpoint(const EvaluationSession& session) {
  if (degraded_) return Status::OK();  // Snapshotting was abandoned.
  ByteWriter snapshot;
  session.SaveState(&snapshot);
  uint64_t frame_bytes = 0;
  const Status appended = RetryWithBackoff(
      options_.backoff,
      [&] {
        return store_->AppendCheckpoint(audit_id_, snapshot.span(),
                                        &frame_bytes);
      },
      &retries_);
  if (appended.ok()) {
    ++checkpoints_written_;
    bytes_appended_ += frame_bytes;
    return Status::OK();
  }
  if (IsTransientError(appended) &&
      options_.on_error == CheckpointOptions::OnError::kDegrade) {
    degraded_ = true;
    degraded_cause_ = appended;
    return Status::OK();
  }
  return appended;
}

bool CheckpointManager::CanResume() const {
  return store_->HasCheckpoint(audit_id_);
}

Status CheckpointManager::Resume(EvaluationSession* session) const {
  // The snapshot arrives by value: other audits on a shared store (daemon
  // worker threads) may append their own checkpoints while this one loads.
  // An unreadable checkpoint fails the resume; it is never a fresh start.
  KGACC_ASSIGN_OR_RETURN(const std::optional<std::vector<uint8_t>> snapshot,
                         store_->LatestCheckpoint(audit_id_));
  if (!snapshot.has_value()) {
    return Status::FailedPrecondition(
        "no checkpoint stored for this audit id");
  }
  ByteReader reader({snapshot->data(), snapshot->size()});
  return session->LoadState(&reader);
}

}  // namespace kgacc
