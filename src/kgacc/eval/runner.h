#ifndef KGACC_EVAL_RUNNER_H_
#define KGACC_EVAL_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "kgacc/eval/session.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/util/status.h"

/// \file runner.h
/// `AuditRunner` — the one loop that drives an `EvaluationSession`. Every
/// driver (the in-process `EvaluationService`, the `kgaccd` daemon and the
/// `kgacc_audit` CLI) advances its sessions through a runner, so the
/// per-step policy lives here and nowhere else:
///
///   budget → gate → step → annotator status → step hook → checkpoint
///
/// * the optional `StoredAnnotator` wrap over a shared `AnnotationStore`;
/// * the optional `CheckpointManager` (snapshot cadence, resume);
/// * the step budget and the wall-clock deadline;
/// * the final snapshot and store flush once a stop rule fires.
///
/// The durability rule the order encodes: a snapshot may only certify
/// judgments the log already holds. A label the store refused fails the
/// run *before* that step's checkpoint, so a resume re-judges it instead
/// of restoring a state the WAL cannot replay.
///
/// The runner allocates nothing per step and reads the clock only when a
/// deadline is set; it is cheap enough for the service's hot path.

namespace kgacc {

/// How an `AuditRunner::Advance` call ended.
enum class RunOutcome {
  /// A stop rule fired; the result is final, snapshotted and flushed.
  kDone,
  /// As kDone, but labels or snapshots stopped persisting on the way
  /// (`RunCounters::degraded`). The estimate is still exact.
  kDegraded,
  /// Stopped at a step boundary with the session live: the requested step
  /// count ran out (`status()` OK), or the gate declined the next step
  /// (`status()` is the gate's refusal; the session was snapshotted).
  kParked,
  /// The step budget or wall-clock deadline was spent when the next step
  /// was due (`status()` is DeadlineExceeded; no step ran in this call
  /// after the check, the session was snapshotted and stays resumable).
  kDeadline,
  /// A step, a refused label, the step hook, a checkpoint or finalization
  /// failed (`status()`). The session must not be advanced further.
  kFailed,
};

/// Report counters of one runner (store-backed fields are zero without a
/// store).
struct RunCounters {
  /// Triples answered from the store, and triples the inner annotator
  /// judged.
  uint64_t store_hits = 0;
  uint64_t oracle_calls = 0;
  /// Snapshots written, and snapshot attempts that failed or gave up.
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;
  /// Store-write retries (label appends plus snapshot appends).
  uint64_t retries = 0;
  /// On-disk bytes the run's label and snapshot appends added.
  uint64_t store_bytes = 0;
  /// Persistence degraded (the annotator or the snapshots) and why.
  bool degraded = false;
  std::string degradation_note;
};

/// Drives one `EvaluationSession` under the policy in the file comment.
/// Lives wherever its driver keeps the session (stack or heap); it holds
/// references into itself, so it is neither copyable nor movable.
class AuditRunner {
 public:
  /// What the runner wraps around the session. Everything is optional; the
  /// default is a plain in-memory audit.
  struct Wiring {
    /// Wrap the annotator in a `StoredAnnotator` over `(store, audit_id)`.
    AnnotationStore* store = nullptr;
    uint64_t audit_id = 0;
    StoredAnnotator::Options store_options;
    /// Snapshot into `store` under this policy (requires `store`).
    std::optional<CheckpointOptions> checkpoint;
    /// Runs after every step whose labels all reached the log, before the
    /// step's checkpoint. A non-OK return fails the run.
    std::function<Status(const EvaluationSession&)> on_step;
    /// Consulted before every step; a non-OK return parks the run with
    /// that status (after a snapshot) instead of stepping.
    std::function<Status()> gate;
    /// Cap on the session's iteration count (0 = none) and wall-clock
    /// budget in seconds from construction or `SetBudget` (0 = none).
    uint64_t max_steps = 0;
    double deadline_seconds = 0.0;
  };

  /// No step limit for `Advance`.
  static constexpr uint64_t kUnbounded = std::numeric_limits<uint64_t>::max();

  /// Builds the session over `sampler`/`annotator` (both must outlive the
  /// runner); `scratch` as in `EvaluationSession`.
  AuditRunner(Sampler& sampler, Annotator& annotator,
              const EvaluationConfig& config, uint64_t seed, Wiring wiring,
              SessionScratch* scratch = nullptr);

  AuditRunner(const AuditRunner&) = delete;
  AuditRunner& operator=(const AuditRunner&) = delete;

  /// Restores the latest stored snapshot when there is one and the session
  /// has not stepped yet. Returns whether it resumed.
  Result<bool> Resume();

  /// Runs up to `n` steps; see `RunOutcome`. The budget is checked before
  /// every step, so a run resumed past its budget takes no step, and a
  /// call whose `n` steps spent the budget returns kParked: the next call
  /// reports kDeadline without stepping.
  RunOutcome Advance(uint64_t n = kUnbounded);

  /// Snapshots the session now unless the latest snapshot already covers
  /// this step (OK without a checkpoint manager). Non-OK, and counted in
  /// `RunCounters::checkpoint_failures`, when the append failed, when it
  /// gave up (the manager degraded), or when a label of the session never
  /// reached the log (the annotator's error: nothing is written).
  Status Checkpoint();

  /// Replaces the step budget and deadline; the deadline clock restarts.
  void SetBudget(uint64_t max_steps, double deadline_seconds);

  /// The last Advance's error, gate refusal or DeadlineExceeded.
  const Status& status() const { return status_; }
  /// The final result (valid after kDone / kDegraded).
  const EvaluationResult& result() const { return result_; }
  EvaluationResult TakeResult() { return std::move(result_); }
  /// The snapshot of the latest step.
  const StepOutcome& last_step() const { return last_step_; }

  RunCounters counters() const;

  EvaluationSession& session() { return *session_; }
  /// The store wrap (nullptr without a store).
  StoredAnnotator* stored() { return stored_ ? &*stored_ : nullptr; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Sets `status_` and returns `outcome`.
  RunOutcome Stop(RunOutcome outcome, Status status);
  /// kFailed with the failing phase (and a sticky WAL error) in the text.
  RunOutcome Fail(const char* what, const Status& cause);
  /// kDeadline after a snapshot when the budget is spent, else nullopt.
  std::optional<RunOutcome> CheckBudget();
  /// One snapshot attempt (`on_cadence`: only when the cadence is due).
  /// Non-OK when it failed or gave up (the manager degraded); counted.
  Status Snapshot(bool on_cadence);
  /// Snapshot inside Advance: a snapshot that gave up in degrade mode
  /// keeps the run going; any other failure ends it (kFailed).
  std::optional<RunOutcome> SnapshotOrFail(bool on_cadence);
  /// Finalization once a stop rule fired: result, last snapshot, flush.
  RunOutcome Finish();

  Wiring wiring_;
  std::optional<StoredAnnotator> stored_;
  /// The annotator the session judges through: `stored_` or the caller's.
  Annotator* annotator_;
  std::optional<EvaluationSession> session_;
  std::optional<CheckpointManager> ckpt_;
  Clock::time_point budget_start_;
  Status status_;
  StepOutcome last_step_;
  EvaluationResult result_;
  /// Iteration and done flag the latest written snapshot holds (-1 = none
  /// yet).
  int snapshot_at_ = -1;
  bool snapshot_done_ = false;
  uint64_t checkpoint_failures_ = 0;
};

}  // namespace kgacc

#endif  // KGACC_EVAL_RUNNER_H_
