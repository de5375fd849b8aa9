#ifndef KGACC_EVAL_SESSION_H_
#define KGACC_EVAL_SESSION_H_

#include <cstdint>
#include <limits>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/eval/evaluator.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/util/random.h"
#include "kgacc/util/status.h"

/// \file session.h
/// Incremental form of the iterative evaluation framework (Fig. 1 /
/// Algorithm 1). `EvaluationSession` exposes the monolithic loop of
/// `RunEvaluation` as explicit, resumable steps:
///
///   phase 1  draw a batch         -+
///   phase 2  annotate it           |  one Step()
///   phase 3  estimate + interval   |
///   phase 4  stop-rule check      -+
///
/// so callers can interleave audits, inspect convergence mid-flight, or
/// schedule many sessions on a thread pool (`EvaluationService`). Driving a
/// session to completion reproduces `RunEvaluation` bit for bit: the same
/// seed yields the identical `EvaluationResult`.
///
/// Per-step cost is O(batch), independent of the accumulated sample size:
/// phase 3 estimates from a streaming `EstimatorAccumulator` rather than
/// re-walking the sample, and the HPD solvers warm-start from the previous
/// step's solution (`AhpdWarmState`). The accumulator is the one owner of
/// the totals (n_S, tau_S) that the stop rules and the result read; the
/// `AnnotatedSample` keeps only the distinct sets the cost model charges.

namespace kgacc {

class ByteWriter;
class ByteReader;

/// Validates the stop-rule parameters shared by `RunEvaluation` and
/// `EvaluationSession`: positive MoE budget, alpha in (0,1), and a minimum
/// sample that does not exceed the annotation cap (a configuration that
/// previously looped past the cap check silently).
Status ValidateEvaluationConfig(const EvaluationConfig& config);

/// Snapshot of a session after one step.
struct StepOutcome {
  /// True once a stop rule has fired; further Step() calls are no-ops.
  bool done = false;
  /// The stop rule that fired (meaningful only when `done`).
  StopReason stop_reason = StopReason::kConverged;
  /// Annotated triples n_S so far.
  uint64_t annotated_triples = 0;
  /// Current accuracy estimate mu-hat (0 before the first estimate).
  double mu = 0.0;
  /// Current margin of error (infinity before the first interval).
  double moe = std::numeric_limits<double>::infinity();
};

/// Reusable storage for running many sessions back to back on one worker
/// (the per-context scratch of `EvaluationService`). A session built on a
/// scratch draws into its `SampleBatch` and accumulates into its
/// `AnnotatedSample`, so consecutive audits inherit warm buffer capacity —
/// in particular the distinct-set tables, which otherwise re-grow from 16
/// slots on every job. One scratch serves one session at a time; it must
/// outlive any session built on it.
struct SessionScratch {
  SampleBatch batch;
  AnnotatedSample sample;
};

/// One in-flight evaluation: a sampler bound to a population, an annotation
/// oracle, a configuration, and the RNG stream derived from `seed`.
///
/// The sampler and annotator must outlive the session. The sampler is
/// Reset() on construction and mutated by Step(); it must not be shared
/// with a concurrently running session (clone it via `Sampler::Clone`).
class EvaluationSession {
 public:
  /// `scratch`, when given, supplies the batch and sample storage (cleared
  /// on construction) instead of session-owned members; results are
  /// identical either way.
  EvaluationSession(Sampler& sampler, Annotator& annotator,
                    const EvaluationConfig& config, uint64_t seed,
                    SessionScratch* scratch = nullptr);

  /// Runs one framework iteration: draw + annotate one batch, re-estimate,
  /// rebuild the 1-alpha interval, and evaluate the stop rules. Returns the
  /// post-step snapshot; once `done`, further calls return the same
  /// snapshot without drawing. Errors (invalid config, estimator or solver
  /// failure) are returned as statuses, exactly as `RunEvaluation` would.
  Result<StepOutcome> Step();

  /// True once a stop rule has fired.
  bool done() const { return done_; }

  /// Finalizes and returns the result accumulated so far: fills in the
  /// distinct-triple/entity tallies and the cost-model charges. Fails with
  /// FailedPrecondition when no units were ever drawn (empty population).
  /// May be called mid-run for a partial-result snapshot; the session can
  /// keep stepping afterwards.
  Result<EvaluationResult> Finish();

  /// Drives the session to completion (Step until done) and finalizes —
  /// the full `RunEvaluation` semantics.
  Result<EvaluationResult> Run();

  /// The distinct entities and triples annotated so far (what the cost
  /// model charges for). Empty in a session restored from a finished
  /// snapshot, which keeps only the sets' sizes (`Finish()` reports them).
  const AnnotatedSample& sample() const { return *sample_; }

  /// The streaming estimator state Step() estimates from — every batch is
  /// folded in once, so phase 3 costs O(batch), not O(sample). It holds
  /// the audit's totals: `num_triples()` is n_S, `num_correct()` is tau_S.
  const EstimatorAccumulator& accumulator() const { return accumulator_; }

  /// The cross-step HPD warm carry threaded through `BuildInterval`: the
  /// per-prior previous intervals that seed the HPD solver each step.
  const AhpdWarmState& interval_warm() const { return interval_warm_; }

  /// The seed this session's stochastic path is derived from.
  uint64_t seed() const { return seed_; }

  /// Batches drawn so far.
  int iterations() const { return result_.iterations; }

  /// Serializes the complete resumable state — RNG stream position, sampler
  /// bookkeeping, streaming estimator (with the totals), the distinct
  /// sets, HPD warm carry, and the partial result — as
  /// one snapshot payload (the live form, v5). All doubles travel
  /// bit-exact: a restored session replays the identical stochastic and
  /// floating-point path, so resuming mid-audit reproduces the
  /// uninterrupted report byte for byte. Its size grows with the distinct
  /// sets. A session restored from a finished snapshot no longer holds the
  /// sets and writes the finished form instead.
  void SaveState(ByteWriter* w) const;

  /// Serializes a finished session (`done()` must hold) in the form its
  /// report needs: the identity fingerprint, the accumulator totals, the
  /// result, the stop state and the two distinct-set *sizes*. The RNG, the
  /// sampler, the HPD warm carry and the set members are left out, so the
  /// payload stays the same size however large the sample grew. This is
  /// what `CheckpointManager` writes once a stop rule has fired.
  void SaveFinishedState(ByteWriter* w) const;

  /// Restores a snapshot of either form into a session constructed over
  /// the *same* design, population, configuration, and seed (a fingerprint
  /// is verified; a mismatched snapshot is rejected before any state is
  /// touched). A live snapshot Reset()s the sampler and reloads its
  /// bookkeeping. A finished one restores a done session that answers
  /// Step(), Finish() and the cost model exactly as the original did.
  Status LoadState(ByteReader* r);

 private:
  /// Builds the snapshot for the current state.
  StepOutcome Snapshot() const;

  /// The snapshot sections both forms share: the identity fingerprint, and
  /// the result with the stop state (`result_`, `done_`, `moe_`).
  void SaveFingerprint(ByteWriter* w) const;
  Status CheckFingerprint(ByteReader* r) const;
  void SaveOutcome(ByteWriter* w) const;
  Status LoadOutcome(ByteReader* r);
  Status LoadFinishedState(ByteReader* r);

  /// |E_S| and |T_S|: the sample's set sizes, or the sizes a finished
  /// snapshot carried in their place.
  uint64_t distinct_entities() const;
  uint64_t distinct_triples() const;

  Sampler& sampler_;
  Annotator& annotator_;
  EvaluationConfig config_;
  CostModel cost_model_;
  uint64_t seed_;
  Rng rng_;
  Status init_status_;
  /// Session-owned storage, used when no external scratch is supplied.
  AnnotatedSample own_sample_;
  SampleBatch own_batch_;
  /// Active storage: the scratch's buffers or the members above.
  AnnotatedSample* sample_ = nullptr;
  SampleBatch* batch_ = nullptr;
  EstimatorAccumulator accumulator_;
  AhpdWarmState interval_warm_;
  EvaluationResult result_;
  bool done_ = false;
  double moe_ = std::numeric_limits<double>::infinity();
  /// Set once restored from a finished snapshot: `sample_` is then empty,
  /// and the two sizes below stand in for its sets.
  bool sets_dropped_ = false;
  uint64_t dropped_entities_ = 0;
  uint64_t dropped_triples_ = 0;
};

}  // namespace kgacc

#endif  // KGACC_EVAL_SESSION_H_
