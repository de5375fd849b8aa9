#ifndef KGACC_NET_SERVER_H_
#define KGACC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kgacc/eval/runner.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/net/frame.h"
#include "kgacc/net/protocol.h"
#include "kgacc/net/socket.h"
#include "kgacc/sampling/design.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/tenant/drr.h"
#include "kgacc/tenant/tenant.h"

/// \file server.h
/// `AuditDaemon` — the crash-tolerant networked audit service behind the
/// `kgaccd` tool. Dispatch is run-to-completion, as in IX (Belay et al.,
/// OSDI '14): N event loops each poll only the connections they own, read
/// their `StepBatch` frames into a per-loop weighted DRR queue, run one
/// batch per pick on the same thread, and write the `IntervalUpdate` /
/// `AuditReport` frames straight into that connection's outbox. There is no
/// listener thread: each loop owns one listener of an SO_REUSEPORT group on
/// the daemon's port, so the kernel places connections across the loops
/// (as in Affinity-Accept, Pesterev et al., EuroSys '12), and a connection
/// is accepted, greeted, opened and stepped on the one loop that owns it.
/// Neither a step nor an open crosses threads inside the daemon; a client
/// that pipelines Hello, OpenAudit and its first StepBatch gets all three
/// answers in one write. Every audit on a connection, and a detached
/// session it re-adopts, runs on its loop. The state loops share — the
/// session registry, the per-KG stores and the tenants' in-flight step
/// account — sits behind one registry mutex, taken at open, close and
/// detach, and per batch only for tenants with an in-flight step cap.
///
/// Robustness model, in one paragraph: the *session* (audit id + durable
/// `AnnotationStore` file) is the unit that survives; the *connection* is
/// the unit that fails. A torn frame, dead peer, idle timeout, or client
/// crash costs exactly one connection — the session checkpoints and waits
/// to be re-adopted by a reconnect (`OpenAudit{resume}` with the same audit
/// id). A daemon SIGKILL costs every connection but no labels: stores
/// replay on restart and sessions resume from their last checkpoint to the
/// byte-identical report. Overload is an explicit `Busy` frame (admission
/// control), never a silent hang; budget and wall-clock exhaustion are
/// explicit `Error` frames (`kDeadlineExceeded`); a degraded store demotes
/// the session to read-only persistence and tells the client; a sticky WAL
/// failure kills the session, never the daemon; a failing `poll()` drains
/// the daemon like SIGTERM does.
///
/// Fault-injection sites (`util/failpoint`): `net.accept` drops a freshly
/// accepted connection, `net.read.torn` flips one bit in a received chunk
/// (the frame CRC catches it downstream), `net.write` fails a connection
/// flush, `net.heartbeat.drop` suppresses one HeartbeatAck, and `net.poll`
/// fails one loop's `poll()` (the daemon drains). All five map injected
/// faults to client-visible statuses and robustness counters.

namespace kgacc {

/// The audit daemon. Construct, `RegisterKg` the populations it may audit,
/// `Start()`, and eventually `Stop()` (or deliver SIGTERM to `kgaccd`,
/// which calls `RequestDrain`).
class AuditDaemon {
 public:
  struct Options {
    /// Listen port (0 = ephemeral; read back with `port()`).
    uint16_t port = 0;
    /// Directory for per-KG annotation stores (`kg_<name>-<hash>.wal`). Every
    /// session auditing the same registered KG shares one store — labels
    /// bought by any audit serve every later audit of that KG, and
    /// concurrent sessions append through the store's group-commit queue.
    std::string store_dir;
    /// Event loops, each accepting its own connections and running their
    /// steps (0 = hardware concurrency).
    int workers = 0;
    /// Admission control: live (unfinished) sessions the daemon holds.
    size_t max_sessions = 64;
    /// Admission control: unacknowledged StepBatch frames per connection.
    size_t max_inflight_batches_per_conn = 4;
    /// Admission control: simultaneous connections.
    size_t max_connections = 64;
    /// Liveness advertisement to clients (HelloAck).
    uint64_t heartbeat_interval_ms = 5000;
    /// Connections silent this long are reaped (their sessions checkpoint
    /// and detach; nothing is lost).
    uint64_t idle_timeout_ms = 30000;
    /// Step budget applied when OpenAudit asks for none (0 = unlimited).
    uint64_t default_max_steps = 0;
    /// Largest frame accepted from a peer.
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// fsync checkpoint frames (the daemon's whole point is surviving
    /// kill -9, so default on).
    bool sync_checkpoints = true;
    /// Session snapshot cadence floor; OpenAudit may ask for coarser.
    uint64_t checkpoint_every = 1;
    /// Chaos: SIGKILL the process after this many total steps, *between* a
    /// step and its checkpoint — the hard recovery case (0 = never).
    uint64_t crash_after_steps = 0;
    /// Auto-compaction threshold handed to every per-KG store (0 = manual
    /// only; drain always compacts). See
    /// `AnnotationStore::Options::auto_compact_garbage_ratio`.
    double auto_compact_garbage_ratio = 0.0;
    /// Tenant id -> quota/weight table. The default (open) registry admits
    /// every tenant with unlimited budgets — single-tenant compatibility
    /// mode. Load a tenants file (`TenantRegistry::LoadFile`) to enforce
    /// per-tenant oracle budgets, store-byte quotas, scheduling weights,
    /// and session/inflight caps. Spend is metered durably in
    /// `store_dir/tenant_ledger.wal`, so budgets survive SIGKILL.
    TenantRegistry tenants;
    /// Per-visit DRR credit for a weight-1 tenant, in steps. Pick the
    /// typical StepBatch size so one scheduler visit serves about
    /// `weight` batches.
    uint64_t drr_quantum = 8;
  };

  /// Monotone robustness counters, readable concurrently with operation.
  struct Stats {
    std::atomic<uint64_t> connections_accepted{0};
    /// Connections failed for cause (torn frame, protocol error, net.write).
    std::atomic<uint64_t> connections_failed{0};
    /// Connections reaped by the idle timeout.
    std::atomic<uint64_t> idle_reaped{0};
    /// Admission-control rejections (Busy frames sent).
    std::atomic<uint64_t> busy_rejections{0};
    /// Sessions stopped by a wall-clock deadline or step budget.
    std::atomic<uint64_t> deadline_exceeded{0};
    std::atomic<uint64_t> sessions_opened{0};
    /// Sessions restored from a durable checkpoint (or re-adopted live).
    std::atomic<uint64_t> sessions_resumed{0};
    /// Sessions failed by a sticky store/evaluation error.
    std::atomic<uint64_t> sessions_failed{0};
    /// Sessions that dropped to degraded read-only persistence.
    std::atomic<uint64_t> sessions_degraded{0};
    std::atomic<uint64_t> steps_executed{0};
    /// Session snapshots that failed or gave up (the checkpoint manager
    /// degraded). Labels are unaffected; resume granularity is.
    std::atomic<uint64_t> checkpoint_failures{0};
    /// Drain-time store or ledger Flush/Sync calls that failed: the last
    /// frames written may not be durable (logged with the store's name).
    std::atomic<uint64_t> settle_failures{0};
    /// Admissions refused with a QuotaExceeded frame (tenant budget or cap
    /// already spent — distinct from transient `busy_rejections`).
    std::atomic<uint64_t> quota_rejections{0};
    /// Sessions whose tenant exhausted its oracle budget mid-audit (the
    /// session checkpoints and idles instead of dying).
    std::atomic<uint64_t> quota_exhaustions{0};
    /// Sessions demoted to degraded read-only annotation by a store-byte
    /// quota overrun.
    std::atomic<uint64_t> quota_degraded{0};
    std::atomic<uint64_t> heartbeats_acked{0};
    /// HeartbeatAcks suppressed by the net.heartbeat.drop failpoint.
    std::atomic<uint64_t> heartbeat_acks_dropped{0};
    /// net.* failpoint activations observed.
    std::atomic<uint64_t> faults_injected{0};
  };

  explicit AuditDaemon(const Options& options);
  ~AuditDaemon();

  AuditDaemon(const AuditDaemon&) = delete;
  AuditDaemon& operator=(const AuditDaemon&) = delete;

  /// Registers a population under a client-addressable name. All
  /// registrations must happen before `Start()`; `kg` must outlive the
  /// daemon.
  void RegisterKg(const std::string& name, const KnowledgeGraph* kg);

  /// Binds the loops' listener group on `Options::port`, then spawns the
  /// event loops and the thread that waits for them to drain. Fails when
  /// something already listens on the port.
  Status Start();

  /// Initiates graceful drain: stop admitting, notify clients, checkpoint
  /// every live session, flush stores, exit the loops. Callable from a
  /// signal handler path (sets a flag and writes the wake pipes).
  void RequestDrain();

  /// Blocks until the drain has completed (every loop stopped and the
  /// drain epilogue ran).
  void Wait();

  /// RequestDrain + Wait.
  void Stop();

  /// The bound listen port (valid after Start()).
  uint16_t port() const { return port_; }

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  const Stats& stats() const { return stats_; }

  /// The durable tenant spend ledger (valid after Start()). Exposed for
  /// tests and the kgaccd stats path; budget checks live in the daemon.
  QuotaLedger* ledger() { return ledger_.get(); }
  const QuotaLedger* ledger() const { return ledger_.get(); }

  /// Renders the robustness counters as one log line.
  std::string StatsLine() const;

 private:
  struct Connection;
  struct Session;
  struct Loop;

  /// Joins the loops once they have drained, then runs the drain epilogue.
  void DrainMain();
  /// One event loop's life: poll, accept, read, run one DRR-picked batch,
  /// flush — until drain, then notify its peers and shed its queue.
  void Serve(Loop& loop);
  /// One poll() over the loop's descriptors (blocking for at most
  /// `timeout_ms`), then accepts on the loop's listener and reads every
  /// readable connection.
  void PollOnce(Loop& loop, int timeout_ms);
  /// Accepts every pending connection on the loop's listener, admits it
  /// and serves what it already sent.
  void DoAccept(Loop& loop);
  /// Reads whatever the socket has and dispatches every complete frame.
  /// Returns false when the connection was closed.
  bool ServiceReadable(Loop& loop, Connection& conn);
  bool HandleFrame(Loop& loop, Connection& conn, const NetFrame& frame);
  void HandleOpenAudit(Loop& loop, Connection& conn, const OpenAuditMsg& msg);
  void HandleStepBatch(Loop& loop, Connection& conn, const StepBatchMsg& msg);
  /// Answers an open or re-adoption with the session's AuditOpened frame.
  void QueueAuditOpened(Connection& conn, const Session& session,
                        bool resumed);
  /// Pops the loop's DRR queue once and runs that batch to completion; its
  /// reply frames land in the connection's outbox.
  void RunNextBatch(Loop& loop);
  /// Runs up to `steps` steps, appending the reply frames to `out`. True
  /// when the session ended (finished or failed).
  bool RunBatch(Session& session, uint64_t steps, std::vector<uint8_t>* out);
  /// Takes `steps` against the tenant's in-flight cap; false = over it.
  bool ReserveInflightSteps(const Session& session, uint64_t steps);
  void ReleaseInflightSteps(const Session& session, uint64_t steps);
  /// Removes a session's still-queued batches from its loop's scheduler,
  /// returning the admission slots (connection inflight counter, tenant
  /// inflight steps) they held.
  void DropQueuedBatches(Loop& loop, Session& session);
  /// Flushes outboxes and closes finished connections.
  void SettleConnections(Loop& loop);
  /// Flushes as much outbox as the socket accepts. False = failed.
  bool FlushOutbox(Connection& conn);
  void QueueError(Connection& conn, StatusCode code, uint64_t audit_id,
                  bool fatal_to_session, bool fatal_to_connection,
                  const std::string& message);
  void QueueBusy(Connection& conn, const std::string& reason);
  /// Admission-path quota rejection: a fatal-to-session QuotaExceeded
  /// frame naming the spent quota and the remaining allowance.
  void QueueQuotaExceeded(Connection& conn, uint64_t audit_id,
                          const std::string& quota, uint64_t remaining,
                          const std::string& message);
  /// Closes a connection, detaching (and checkpointing) its sessions.
  void CloseConnection(Loop& loop, int fd, const Status& cause);
  /// Checkpoints a session, then detaches it from its connection; from
  /// then on any loop may re-adopt it.
  void DetachSession(Loop& loop, Session& session);
  /// Drops a finished or failed session from its connection, its loop and
  /// the registry.
  void EndSession(Loop& loop, Session& session);
  void ReapIdle(Loop& loop);
  /// Queues a Drain notice on every connection of the loop and sheds its
  /// DRR queue.
  void DrainLoop(Loop& loop);
  /// The shared annotation store for a registered KG, opened on first use
  /// (`store_dir/kg_<sanitized-name>-<crc32-of-raw-name>.wal`; the hash
  /// suffix keeps distinct names from aliasing one file) and kept for the
  /// daemon's life. Caller holds `registry_mu_`.
  Result<std::shared_ptr<AnnotationStore>> StoreForKg(const std::string& name);
  /// A fresh sampler for an audit, cloned from the cached prototype for its
  /// KG and design (rebuilt when the TWCS second-stage size changes). A
  /// cluster design's PPS alias table is O(#clusters) to build and the
  /// clones share it, so an open does not rebuild it. Caller holds
  /// `registry_mu_`.
  Result<std::unique_ptr<Sampler>> SamplerFor(const KnowledgeGraph& kg,
                                              const OpenAuditMsg& msg);
  /// Appends the final AuditReport frame for a finished session.
  void AppendReportFrame(Session& session, std::vector<uint8_t>* out);
  /// The tenant's oracle spend as the budget gate sees it: durable ledger
  /// balance plus this session's not-yet-charged calls.
  uint64_t OracleSpend(const Session& session) const;
  /// The runner's pre-step gate for tenants with an oracle budget.
  Status OracleBudgetGate(const Session& session) const;
  /// Snapshots an idle session (detach, drain); failures are counted.
  void CheckpointSession(Session& session);

  Options options_;
  Stats stats_;
  std::map<std::string, const KnowledgeGraph*> kgs_;

  uint16_t port_ = 0;
  /// The event loops, one thread and one listener each; a connection lives
  /// on the loop whose listener accepted it.
  std::vector<std::unique_ptr<Loop>> loops_;
  std::thread drain_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  /// Open connections across all loops (admission control).
  std::atomic<size_t> live_connections_{0};

  /// Durable per-tenant spend; opened in Start() at
  /// `store_dir/tenant_ledger.wal`. Thread-safe — loops charge it
  /// directly from RunBatch.
  std::unique_ptr<QuotaLedger> ledger_;

  /// Guards the state loops share: the session registry, every session's
  /// `conn` link, the stores and the tenant in-flight account.
  std::mutex registry_mu_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  /// One shared store per KG name (the store itself is thread-safe, so
  /// sessions on different loops append concurrently).
  std::map<std::string, std::shared_ptr<AnnotationStore>> stores_;
  /// Resolved store path -> raw KG name that owns it; `StoreForKg` refuses
  /// a second name resolving to an already-claimed path (two stores over
  /// one WAL would corrupt it).
  std::map<std::string, std::string> store_paths_;
  /// (KG name, design) -> the prototype `SamplerFor` clones. Both parts of
  /// the key are validated before insertion, so the map stays small.
  struct SamplerPrototype {
    uint64_t twcs_m = 0;
    std::unique_ptr<Sampler> sampler;
  };
  std::map<std::pair<std::string, std::string>, SamplerPrototype>
      sampler_prototypes_;
  /// Steps queued or running per capped tenant, against
  /// `TenantConfig::max_inflight_steps` (breach is a transient Busy).
  std::map<std::string, uint64_t> tenant_inflight_steps_;
};

}  // namespace kgacc

#endif  // KGACC_NET_SERVER_H_
