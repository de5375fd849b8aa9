#include "kgacc/net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

namespace kgacc {

namespace {

using Clock = std::chrono::steady_clock;

/// How long an idle loop sleeps in poll() before it checks idle timeouts.
constexpr int kIdlePollMs = 100;

void AppendError(StatusCode code, uint64_t audit_id, bool fatal_to_session,
                 bool fatal_to_connection, const std::string& message,
                 std::vector<uint8_t>* out) {
  AppendFrameOf(MessageType::kError, EncodeError,
                ErrorMsg{static_cast<uint8_t>(code), audit_id,
                         fatal_to_session, fatal_to_connection, message},
                out);
}

void AppendQuota(uint64_t audit_id, const std::string& quota,
                 uint64_t remaining, bool fatal_to_session,
                 const std::string& message, std::vector<uint8_t>* out) {
  AppendFrameOf(MessageType::kQuotaExceeded, EncodeQuotaExceeded,
                QuotaExceededMsg{audit_id, quota, remaining, fatal_to_session,
                                 message},
                out);
}

}  // namespace

/// One TCP peer, owned for its whole life by the loop that accepted it.
struct AuditDaemon::Connection {
  OwnedFd fd;
  FrameAssembler assembler;
  /// Bytes queued for the peer; [outbox_off, size) is still unsent.
  std::vector<uint8_t> outbox;
  size_t outbox_off = 0;
  bool hello_done = false;
  /// Flush the outbox, then close cleanly (used for courtesy replies on
  /// connections the daemon is rejecting or draining).
  bool close_after_flush = false;
  Clock::time_point last_activity = Clock::now();
  /// StepBatch frames admitted but not yet run.
  size_t inflight_batches = 0;
  /// Sessions attached to this connection.
  std::vector<Session*> sessions;
  /// Normalized tenant id from Hello and its registry config (points into
  /// the daemon's immutable Options::tenants; set once Hello succeeds).
  std::string tenant;
  const TenantConfig* tenant_config = nullptr;

  explicit Connection(OwnedFd sock) : fd(std::move(sock)) {}
};

/// One audit session: the durable unit that outlives connections. While
/// attached, only the loop owning `conn` touches it; a detached session
/// belongs to whoever re-adopts it under the registry mutex. Under
/// run-to-completion a session is never mid-batch when it detaches.
struct AuditDaemon::Session {
  uint64_t audit_id = 0;
  std::string kg_name;
  std::string design_name;
  /// The KG's shared store (co-owned with the daemon registry and any
  /// sibling session auditing the same KG; appends group-commit).
  std::shared_ptr<AnnotationStore> store;
  std::unique_ptr<Sampler> sampler;
  OracleAnnotator inner;
  /// The session's loop: store wrap, checkpoints, step budget, deadline
  /// and the tenant's oracle-budget gate.
  std::unique_ptr<AuditRunner> runner;
  /// Owning connection (nullptr = detached, awaiting re-adoption). Written
  /// under the registry mutex.
  Connection* conn = nullptr;
  /// Owning tenant (from the opening connection's Hello) and its config —
  /// a pointer into the daemon's immutable Options::tenants, stable for
  /// the daemon's life.
  std::string tenant;
  const TenantConfig* tenant_config = nullptr;
  bool degraded_notified = false;
  /// The tenant's oracle budget ran out mid-audit: the session idles at
  /// its checkpoint (each further batch re-answers with a non-fatal
  /// QuotaExceeded) instead of dying.
  bool quota_exhausted = false;
  /// Spend already charged to the ledger — advanced only on a successful
  /// Charge, so a failed append leaves the delta pending for the next
  /// step (never lost, never double-counted).
  uint64_t metered_oracle_calls = 0;
  uint64_t metered_store_bytes = 0;

  uint64_t steps_done() const {
    return static_cast<uint64_t>(runner->session().iterations());
  }
};

/// One event-loop thread and what it alone touches: its listener, its
/// connections, the sessions attached to them and its DRR queue.
struct AuditDaemon::Loop {
  explicit Loop(uint64_t drr_quantum) : sched(drr_quantum) {}

  /// This loop's member of the daemon's SO_REUSEPORT listener group.
  OwnedFd listener;
  OwnedFd wake_read;
  OwnedFd wake_write;
  std::map<int, std::unique_ptr<Connection>> conns;
  /// Sessions attached to this loop's connections, by audit id.
  std::unordered_map<uint64_t, Session*> sessions;
  /// Admitted StepBatch frames in tenant-weighted DRR queues (cost =
  /// steps): one batch runs per pick, so a heavy tenant's backlog cannot
  /// starve a light tenant sharing the loop.
  DrrScheduler sched;
  /// poll() arguments, reused across iterations.
  std::vector<pollfd> fds;
  std::thread thread;

  void Wake() const {
    const uint8_t byte = 1;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    (void)!write(wake_write.get(), &byte, 1);
  }
};

AuditDaemon::AuditDaemon(const Options& options) : options_(options) {}

AuditDaemon::~AuditDaemon() {
  if (started_.load(std::memory_order_acquire)) Stop();
}

void AuditDaemon::RegisterKg(const std::string& name,
                             const KnowledgeGraph* kg) {
  kgs_[name] = kg;
}

Status AuditDaemon::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("daemon already started");
  }
  if (options_.store_dir.empty()) {
    return Status::InvalidArgument("AuditDaemon requires a store_dir");
  }
  if (mkdir(options_.store_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + options_.store_dir +
                           "): " + std::strerror(errno));
  }
  int workers = options_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (workers <= 0) workers = 1;
  KGACC_ASSIGN_OR_RETURN(std::vector<OwnedFd> listeners,
                         ListenTcpGroup(options_.port, workers));
  KGACC_ASSIGN_OR_RETURN(port_, LocalPort(listeners.front().get()));
  std::vector<std::unique_ptr<Loop>> loops;
  for (OwnedFd& listener : listeners) {
    auto loop = std::make_unique<Loop>(options_.drr_quantum);
    loop->listener = std::move(listener);
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) {
      return Status::IoError(std::string("pipe: ") + std::strerror(errno));
    }
    loop->wake_read = OwnedFd(pipe_fds[0]);
    loop->wake_write = OwnedFd(pipe_fds[1]);
    KGACC_RETURN_IF_ERROR(SetNonBlocking(loop->wake_read.get()));
    KGACC_RETURN_IF_ERROR(SetNonBlocking(loop->wake_write.get()));
    loops.push_back(std::move(loop));
  }
  // The tenant ledger shares the store directory but never a KG store's
  // filename (those carry a `kg_` prefix). Appends flush to the OS per
  // frame — enough to survive the SIGKILL the daemon is built around —
  // and the drain epilogue fsyncs.
  AnnotationStore::Options ledger_options;
  auto ledger =
      QuotaLedger::Open(options_.store_dir + "/tenant_ledger.wal",
                        ledger_options);
  if (!ledger.ok()) return ledger.status();
  ledger_ = std::move(*ledger);
  loops_ = std::move(loops);
  started_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    loop->thread = std::thread(&AuditDaemon::Serve, this, std::ref(*loop));
  }
  drain_thread_ = std::thread(&AuditDaemon::DrainMain, this);
  return Status::OK();
}

void AuditDaemon::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  for (const auto& loop : loops_) loop->Wake();
}

void AuditDaemon::Wait() {
  if (drain_thread_.joinable()) drain_thread_.join();
}

void AuditDaemon::Stop() {
  RequestDrain();
  Wait();
}

void AuditDaemon::QueueError(Connection& conn, StatusCode code,
                             uint64_t audit_id, bool fatal_to_session,
                             bool fatal_to_connection,
                             const std::string& message) {
  AppendError(code, audit_id, fatal_to_session, fatal_to_connection, message,
              &conn.outbox);
  if (fatal_to_connection) conn.close_after_flush = true;
}

void AuditDaemon::QueueBusy(Connection& conn, const std::string& reason) {
  stats_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
  BusyMsg busy;
  busy.reason = reason;
  AppendFrameOf(MessageType::kBusy, EncodeBusy, busy, &conn.outbox);
}

void AuditDaemon::QueueQuotaExceeded(Connection& conn, uint64_t audit_id,
                                     const std::string& quota,
                                     uint64_t remaining,
                                     const std::string& message) {
  stats_.quota_rejections.fetch_add(1, std::memory_order_relaxed);
  AppendQuota(audit_id, quota, remaining, /*fatal_to_session=*/true, message,
              &conn.outbox);
}

bool AuditDaemon::FlushOutbox(Connection& conn) {
  if (conn.outbox_off >= conn.outbox.size()) return true;
  if (FailpointHit("net.write")) {
    stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  while (conn.outbox_off < conn.outbox.size()) {
    const ssize_t n =
        send(conn.fd.get(), conn.outbox.data() + conn.outbox_off,
             conn.outbox.size() - conn.outbox_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // POLLOUT
      return false;
    }
    conn.outbox_off += static_cast<size_t>(n);
  }
  conn.outbox.clear();
  conn.outbox_off = 0;
  return true;
}

bool AuditDaemon::ReserveInflightSteps(const Session& session,
                                       uint64_t steps) {
  const uint64_t cap = session.tenant_config->max_inflight_steps;
  if (cap == 0) return true;  // Uncapped tenants keep no account.
  std::lock_guard<std::mutex> lock(registry_mu_);
  uint64_t& inflight = tenant_inflight_steps_[session.tenant];
  if (inflight + steps > cap) return false;
  inflight += steps;
  return true;
}

void AuditDaemon::ReleaseInflightSteps(const Session& session,
                                       uint64_t steps) {
  if (session.tenant_config->max_inflight_steps == 0) return;
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = tenant_inflight_steps_.find(session.tenant);
  if (it == tenant_inflight_steps_.end()) return;
  it->second -= std::min(it->second, steps);
  if (it->second == 0) tenant_inflight_steps_.erase(it);
}

void AuditDaemon::DropQueuedBatches(Loop& loop, Session& session) {
  const DrrRemoved removed = loop.sched.RemoveId(session.audit_id);
  if (removed.items == 0) return;
  ReleaseInflightSteps(session, removed.cost);
  Connection& conn = *session.conn;  // Only attached sessions queue work.
  conn.inflight_batches -= std::min(conn.inflight_batches, removed.items);
}

void AuditDaemon::DetachSession(Loop& loop, Session& session) {
  DropQueuedBatches(loop, session);
  // Bound the reconnect replay: a detached session re-adopts from its
  // freshest possible snapshot. A failure costs replay, not labels —
  // every label is already in the WAL — so it is counted, not fatal. The
  // snapshot comes first: once detached, another loop may adopt it.
  CheckpointSession(session);
  loop.sessions.erase(session.audit_id);
  std::lock_guard<std::mutex> lock(registry_mu_);
  session.conn = nullptr;
}

void AuditDaemon::EndSession(Loop& loop, Session& session) {
  // The session leaves the registry; its store (flushed WAL + checkpoints)
  // remains the durable artifact a reopen resumes from. A budget-stopped
  // session was snapshotted by its runner; a failed one must not be (its
  // last step may outrun the log).
  DropQueuedBatches(loop, session);
  std::erase(session.conn->sessions, &session);
  loop.sessions.erase(session.audit_id);
  std::unique_ptr<Session> ended;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = sessions_.find(session.audit_id);
    ended = std::move(it->second);
    sessions_.erase(it);
  }
}

void AuditDaemon::CloseConnection(Loop& loop, int fd, const Status& cause) {
  auto it = loop.conns.find(fd);
  if (it == loop.conns.end()) return;
  if (!cause.ok()) {
    stats_.connections_failed.fetch_add(1, std::memory_order_relaxed);
  }
  for (Session* session : it->second->sessions) {
    DetachSession(loop, *session);
  }
  loop.conns.erase(it);
  live_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void AuditDaemon::DoAccept(Loop& loop) {
  while (true) {
    auto accepted = AcceptTcp(loop.listener.get());
    if (!accepted.ok()) return;  // transient; the loop retries next wake
    if (!accepted->valid()) return;
    if (FailpointHit("net.accept")) {
      // Injected accept fault: the peer sees an immediate close and
      // retries with backoff — never a hang, never a daemon crash.
      stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    // Reserve the slot, then check: loops accept concurrently, and a check
    // before the add would let them overshoot the limit together.
    if (live_connections_.fetch_add(1, std::memory_order_relaxed) >=
            options_.max_connections ||
        draining()) {
      live_connections_.fetch_sub(1, std::memory_order_relaxed);
      // Courtesy push-back for a connection the daemon will not serve:
      // a Busy frame (best effort into the socket buffer), then close.
      stats_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
      BusyMsg busy;
      busy.reason = draining() ? "daemon is draining" : "connection limit";
      const std::vector<uint8_t> frame =
          FrameOf(MessageType::kBusy, EncodeBusy, busy);
      (void)!send(accepted->get(), frame.data(), frame.size(), MSG_NOSIGNAL);
      continue;
    }
    const int fd = accepted->get();
    auto conn = std::make_unique<Connection>(std::move(*accepted));
    Connection& added = *conn;
    loop.conns.emplace(fd, std::move(conn));
    // A client sends Hello (and usually its open) right behind its
    // connect: read it now rather than on the next poll.
    (void)ServiceReadable(loop, added);
  }
}

bool AuditDaemon::ServiceReadable(Loop& loop, Connection& conn) {
  uint8_t buf[4096];
  while (true) {
    ssize_t n = recv(conn.fd.get(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(loop, conn.fd.get(),
                      Status::IoError(std::string("recv: ") +
                                      std::strerror(errno)));
      return false;
    }
    if (n == 0) {
      // Clean close by the peer; its sessions checkpoint and detach.
      CloseConnection(loop, conn.fd.get(), Status::OK());
      return false;
    }
    conn.last_activity = Clock::now();
    if (FailpointHit("net.read.torn")) {
      // Injected torn read: flip one bit mid-chunk. The frame CRC turns
      // this into a descriptive connection failure downstream.
      stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
      buf[static_cast<size_t>(n) / 2] ^= 0x40;
    }
    conn.assembler.Feed({buf, static_cast<size_t>(n)});
    while (true) {
      NetFrame frame;
      const auto next = conn.assembler.Next(&frame);
      if (!next.ok()) {
        // Corrupt stream: tell the peer why (best effort — its read side
        // usually still works), then fail the connection, not the daemon.
        std::vector<uint8_t> bytes;
        AppendError(next.status().code(), 0, false, true,
                    next.status().message(), &bytes);
        (void)!send(conn.fd.get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
        CloseConnection(loop, conn.fd.get(), next.status());
        return false;
      }
      if (!*next) break;
      if (!HandleFrame(loop, conn, frame)) return false;
    }
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }
  return true;
}

bool AuditDaemon::HandleFrame(Loop& loop, Connection& conn,
                              const NetFrame& frame) {
  const auto type = static_cast<MessageType>(frame.type);
  const std::span<const uint8_t> payload(frame.payload.data(),
                                         frame.payload.size());
  if (!conn.hello_done && type != MessageType::kHello) {
    const Status cause = Status::FailedPrecondition(
        std::string("protocol violation: expected Hello, got ") +
        MessageTypeName(frame.type));
    QueueError(conn, cause.code(), 0, false, true, cause.message());
    return true;  // close_after_flush delivers the error, then closes
  }
  switch (type) {
    case MessageType::kHello: {
      const auto msg = DecodeHello(payload);
      if (!msg.ok()) {
        QueueError(conn, msg.status().code(), 0, false, true,
                   msg.status().message());
        return true;
      }
      if (msg->magic != kNetMagic || msg->version != kNetVersion) {
        QueueError(conn, StatusCode::kInvalidArgument, 0, false, true,
                   "protocol mismatch: peer speaks magic " +
                       std::to_string(msg->magic) + " v" +
                       std::to_string(msg->version));
        return true;
      }
      const std::string tenant = TenantRegistry::Normalize(msg->tenant);
      const TenantConfig* tenant_config = options_.tenants.Lookup(tenant);
      if (tenant_config == nullptr) {
        QueueError(conn, StatusCode::kNotFound, 0, false, true,
                   "unknown tenant '" + tenant +
                       "' (closed registry with no '*' fallback)");
        return true;
      }
      conn.tenant = tenant;
      conn.tenant_config = tenant_config;
      conn.hello_done = true;
      HelloAckMsg ack;
      ack.draining = draining();
      ack.heartbeat_interval_ms = options_.heartbeat_interval_ms;
      ack.idle_timeout_ms = options_.idle_timeout_ms;
      AppendFrameOf(MessageType::kHelloAck, EncodeHelloAck, ack, &conn.outbox);
      return true;
    }
    case MessageType::kOpenAudit: {
      const auto msg = DecodeOpenAudit(payload);
      if (!msg.ok()) {
        QueueError(conn, msg.status().code(), 0, false, true,
                   msg.status().message());
        return true;
      }
      HandleOpenAudit(loop, conn, *msg);
      return true;
    }
    case MessageType::kStepBatch: {
      const auto msg = DecodeStepBatch(payload);
      if (!msg.ok()) {
        QueueError(conn, msg.status().code(), 0, false, true,
                   msg.status().message());
        return true;
      }
      HandleStepBatch(loop, conn, *msg);
      return true;
    }
    case MessageType::kCloseAudit: {
      const auto msg = DecodeCloseAudit(payload);
      if (!msg.ok()) {
        QueueError(conn, msg.status().code(), 0, false, true,
                   msg.status().message());
        return true;
      }
      auto sit = loop.sessions.find(msg->audit_id);
      if (sit != loop.sessions.end() && sit->second->conn == &conn) {
        Session* session = sit->second;
        DetachSession(loop, *session);
        std::erase(conn.sessions, session);
      }
      return true;
    }
    case MessageType::kHeartbeat: {
      const auto msg = DecodeHeartbeat(payload);
      if (!msg.ok()) {
        QueueError(conn, msg.status().code(), 0, false, true,
                   msg.status().message());
        return true;
      }
      if (FailpointHit("net.heartbeat.drop")) {
        // Injected dead-air: the ack vanishes; the client's miss counter
        // and the idle reaper are the detectors under test.
        stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
        stats_.heartbeat_acks_dropped.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      stats_.heartbeats_acked.fetch_add(1, std::memory_order_relaxed);
      AppendFrameOf(MessageType::kHeartbeatAck, EncodeHeartbeatAck, *msg,
                    &conn.outbox);
      return true;
    }
    default: {
      QueueError(conn, StatusCode::kInvalidArgument, 0, false, true,
                 std::string("unexpected frame from client: ") +
                     MessageTypeName(frame.type));
      return true;
    }
  }
}

Result<std::shared_ptr<AnnotationStore>> AuditDaemon::StoreForKg(
    const std::string& name) {
  auto it = stores_.find(name);
  if (it != stores_.end()) return it->second;
  AnnotationStore::Options store_options;
  store_options.sync_checkpoints = options_.sync_checkpoints;
  store_options.auto_compact_garbage_ratio =
      options_.auto_compact_garbage_ratio;
  // Registered names are client-chosen; keep the filename shell-safe, and
  // make it injective by suffixing a hash of the *raw* name — sanitization
  // alone would alias distinct KGs ("a b" and "a_b") onto one WAL file,
  // and two AnnotationStore instances over one log corrupt it (interleaved
  // frames through separate stdio buffers, conflicting truncation).
  std::string sanitized;
  sanitized.reserve(name.size());
  for (const char c : name) {
    sanitized.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0
                            ? c
                            : '_');
  }
  char tag[16];
  std::snprintf(tag, sizeof(tag), "%08x", Crc32c(name.data(), name.size()));
  const std::string path =
      options_.store_dir + "/kg_" + sanitized + "-" + tag + ".wal";
  // Belt over the hash: if two live names ever resolve to one path, refuse
  // the second instead of silently sharing the file.
  const auto claimed = store_paths_.emplace(path, name);
  if (!claimed.second && claimed.first->second != name) {
    return Status::FailedPrecondition(
        "KG '" + name + "' resolves to store file '" + path +
        "' already in use by KG '" + claimed.first->second + "'");
  }
  auto store = AnnotationStore::Open(path, store_options);
  if (!store.ok()) return store.status();
  std::shared_ptr<AnnotationStore> shared = std::move(*store);
  stores_.emplace(name, shared);
  return shared;
}

Result<std::unique_ptr<Sampler>> AuditDaemon::SamplerFor(
    const KnowledgeGraph& kg, const OpenAuditMsg& msg) {
  const auto key = std::make_pair(msg.kg_name, msg.design);
  auto it = sampler_prototypes_.find(key);
  if (it == sampler_prototypes_.end() || it->second.twcs_m != msg.twcs_m) {
    auto made =
        MakeSamplerForDesign(kg, msg.design, static_cast<int>(msg.twcs_m));
    if (!made.ok()) return made.status();
    it = sampler_prototypes_
             .insert_or_assign(key,
                               SamplerPrototype{msg.twcs_m, std::move(*made)})
             .first;
  }
  return it->second.sampler->Clone();
}

void AuditDaemon::HandleOpenAudit(Loop& loop, Connection& conn,
                                  const OpenAuditMsg& msg) {
  if (draining()) {
    QueueBusy(conn, "daemon is draining; reconnect after restart");
    return;
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto sit = sessions_.find(msg.audit_id);
  if (sit != sessions_.end()) {
    Session& session = *sit->second;
    if (session.conn != nullptr && session.conn != &conn) {
      QueueError(conn, StatusCode::kFailedPrecondition, msg.audit_id, false,
                 false,
                 "audit " + std::to_string(msg.audit_id) +
                     " is attached to another live connection");
      return;
    }
    if (session.tenant != conn.tenant) {
      QueueError(conn, StatusCode::kFailedPrecondition, msg.audit_id, false,
                 false,
                 "audit " + std::to_string(msg.audit_id) +
                     " belongs to tenant '" + session.tenant + "'");
      return;
    }
    // Re-adoption: the session survived its connection, and now runs on
    // this connection's loop. Budgets restart from the adopt point; the
    // evaluation state continues untouched. Tenant quota admission is
    // deliberately skipped — a live session reattaching is not new work,
    // and an exhausted budget already stops its steps.
    if (session.conn == nullptr) conn.sessions.push_back(&session);
    session.conn = &conn;
    loop.sessions[msg.audit_id] = &session;
    session.runner->SetBudget(
        msg.max_steps != 0 ? msg.max_steps : options_.default_max_steps,
        msg.deadline_seconds);
    stats_.sessions_resumed.fetch_add(1, std::memory_order_relaxed);
    QueueAuditOpened(conn, session, /*resumed=*/true);
    return;
  }

  if (sessions_.size() >= options_.max_sessions) {
    QueueBusy(conn, "session limit (" +
                        std::to_string(options_.max_sessions) + ") reached");
    return;
  }
  // Tenant quota admission. Exhausted budgets *reject* new audits (even
  // resumable ones — an operator must raise the budget first); a live
  // session hitting the budget mid-run degrades instead (see RunBatch).
  // QuotaExceeded is not Busy: retrying cannot help until the quota grows.
  const TenantConfig& tenant_config = *conn.tenant_config;
  if (tenant_config.max_sessions != 0) {
    size_t live = 0;
    for (const auto& [id, s] : sessions_) {
      if (s->tenant == conn.tenant) ++live;
    }
    if (live >= tenant_config.max_sessions) {
      QueueQuotaExceeded(
          conn, msg.audit_id, "max_sessions", 0,
          "tenant '" + conn.tenant + "' session cap (" +
              std::to_string(tenant_config.max_sessions) + ") reached");
      return;
    }
  }
  const TenantBalance spent = ledger_->Balance(conn.tenant);
  if (tenant_config.oracle_budget != 0 &&
      spent.oracle_spent >= tenant_config.oracle_budget) {
    QueueQuotaExceeded(
        conn, msg.audit_id, "oracle_budget",
        RemainingAllowance(tenant_config.oracle_budget, spent.oracle_spent),
        "tenant '" + conn.tenant + "' oracle-call budget (" +
            std::to_string(tenant_config.oracle_budget) + ") exhausted");
    return;
  }
  if (tenant_config.store_byte_quota != 0 &&
      spent.store_bytes >= tenant_config.store_byte_quota) {
    QueueQuotaExceeded(
        conn, msg.audit_id, "store_quota",
        RemainingAllowance(tenant_config.store_byte_quota, spent.store_bytes),
        "tenant '" + conn.tenant + "' store-byte quota (" +
            std::to_string(tenant_config.store_byte_quota) + ") exhausted");
    return;
  }
  const auto kg_it = kgs_.find(msg.kg_name);
  if (kg_it == kgs_.end()) {
    QueueError(conn, StatusCode::kNotFound, msg.audit_id, true, false,
               "no registered knowledge graph named '" + msg.kg_name + "'");
    return;
  }
  const auto method = ParseIntervalMethod(msg.method);
  if (!method.ok()) {
    QueueError(conn, method.status().code(), msg.audit_id, true, false,
               method.status().message());
    return;
  }
  auto sampler = SamplerFor(*kg_it->second, msg);
  if (!sampler.ok()) {
    QueueError(conn, sampler.status().code(), msg.audit_id, true, false,
               sampler.status().message());
    return;
  }

  auto session = std::make_unique<Session>();
  session->audit_id = msg.audit_id;
  session->kg_name = msg.kg_name;
  session->tenant = conn.tenant;
  session->tenant_config = conn.tenant_config;
  session->sampler = std::move(*sampler);
  session->design_name = session->sampler->name();
  EvaluationConfig config;
  config.method = *method;
  config.alpha = msg.alpha;
  config.moe_threshold = msg.epsilon;

  auto store = StoreForKg(msg.kg_name);
  if (!store.ok()) {
    QueueError(conn, store.status().code(), msg.audit_id, true, false,
               "cannot open annotation store: " + store.status().message());
    return;
  }
  session->store = std::move(*store);
  AuditRunner::Wiring wiring;
  wiring.store = session->store.get();
  wiring.audit_id = msg.audit_id;
  wiring.checkpoint.emplace();
  wiring.checkpoint->every_steps =
      std::max<uint64_t>(msg.checkpoint_every, options_.checkpoint_every);
  wiring.max_steps =
      msg.max_steps != 0 ? msg.max_steps : options_.default_max_steps;
  wiring.deadline_seconds = msg.deadline_seconds;
  Session* sp = session.get();
  if (session->tenant_config->oracle_budget != 0) {
    wiring.gate = [this, sp] { return OracleBudgetGate(*sp); };
  }
  wiring.on_step = [this](const EvaluationSession&) {
    const uint64_t total =
        stats_.steps_executed.fetch_add(1, std::memory_order_relaxed) + 1;
    // Chaos hook: die between the step and its checkpoint — the hard
    // recovery case, where the tail step's labels are durable but its
    // snapshot is not. Recovery replays them from the store for free.
    if (options_.crash_after_steps != 0 &&
        total >= options_.crash_after_steps) {
      std::raise(SIGKILL);
    }
    return Status::OK();
  };
  session->runner = std::make_unique<AuditRunner>(
      *session->sampler, session->inner, config, msg.seed, std::move(wiring));

  bool resumed = false;
  if (msg.resume) {
    const Result<bool> restored = session->runner->Resume();
    if (!restored.ok()) {
      QueueError(conn, restored.status().code(), msg.audit_id, true, false,
                 "cannot resume audit " + std::to_string(msg.audit_id) +
                     ": " + restored.status().message());
      return;
    }
    resumed = *restored;
  }
  if (resumed) stats_.sessions_resumed.fetch_add(1, std::memory_order_relaxed);

  session->conn = &conn;
  conn.sessions.push_back(sp);
  loop.sessions[msg.audit_id] = sp;
  stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);

  QueueAuditOpened(conn, *session, resumed);
  sessions_.emplace(msg.audit_id, std::move(session));
}

void AuditDaemon::QueueAuditOpened(Connection& conn, const Session& session,
                                   bool resumed) {
  AuditOpenedMsg opened;
  opened.audit_id = session.audit_id;
  opened.resumed = resumed;
  opened.start_step = session.steps_done();
  opened.labels_on_file = session.store->num_labeled();
  opened.design_name = session.design_name;
  opened.dataset_name = session.kg_name;
  AppendFrameOf(MessageType::kAuditOpened, EncodeAuditOpened, opened,
                &conn.outbox);
}

void AuditDaemon::HandleStepBatch(Loop& loop, Connection& conn,
                                  const StepBatchMsg& msg) {
  auto sit = loop.sessions.find(msg.audit_id);
  if (sit == loop.sessions.end() || sit->second->conn != &conn) {
    QueueError(conn, StatusCode::kFailedPrecondition, msg.audit_id, true,
               false,
               "audit " + std::to_string(msg.audit_id) +
                   " is not open on this connection");
    return;
  }
  if (draining()) {
    QueueBusy(conn, "daemon is draining; reconnect after restart");
    return;
  }
  if (msg.steps == 0) return;
  if (conn.inflight_batches >= options_.max_inflight_batches_per_conn) {
    QueueBusy(conn, "in-flight batch limit (" +
                        std::to_string(
                            options_.max_inflight_batches_per_conn) +
                        ") reached");
    return;
  }
  Session& session = *sit->second;
  const TenantConfig& tenant_config = *session.tenant_config;
  if (!ReserveInflightSteps(session, msg.steps)) {
    // Transient back-pressure, not a budget violation: the cap frees as
    // batches complete, so Busy (retry-later) is the honest answer.
    QueueBusy(conn, "tenant '" + session.tenant + "' in-flight step cap (" +
                        std::to_string(tenant_config.max_inflight_steps) +
                        ") reached");
    return;
  }
  ++conn.inflight_batches;
  loop.sched.Push(session.tenant, tenant_config.weight,
                  DrrItem{session.audit_id, msg.steps});
}

void AuditDaemon::RunNextBatch(Loop& loop) {
  const std::optional<DrrItem> item = loop.sched.Pop();
  if (!item.has_value()) return;
  // Queued batches belong to sessions attached here: detaching or ending
  // a session drops its queued batches.
  const auto sit = loop.sessions.find(item->id);
  if (sit == loop.sessions.end()) return;
  Session& session = *sit->second;
  Connection& conn = *session.conn;
  const bool ended = RunBatch(session, item->cost, &conn.outbox);
  if (conn.inflight_batches > 0) --conn.inflight_batches;
  ReleaseInflightSteps(session, item->cost);
  if (ended) EndSession(loop, session);
}

void AuditDaemon::AppendReportFrame(Session& session,
                                    std::vector<uint8_t>* out) {
  const RunCounters counters = session.runner->counters();
  AuditReportMsg report;
  report.audit_id = session.audit_id;
  report.design_name = session.design_name;
  report.dataset_name = session.kg_name;
  report.result = session.runner->result();
  report.store_hits = counters.store_hits;
  report.oracle_calls = counters.oracle_calls;
  report.checkpoints_written = counters.checkpoints;
  report.store_retries = counters.retries;
  report.degraded = counters.degraded;
  report.degradation_note = counters.degradation_note;
  AppendFrameOf(MessageType::kAuditReport, EncodeAuditReport, report, out);
}

uint64_t AuditDaemon::OracleSpend(const Session& session) const {
  // Durable spend plus any delta a failed charge left pending.
  return ledger_->Balance(session.tenant).oracle_spent +
         session.runner->stored()->oracle_calls() -
         session.metered_oracle_calls;
}

Status AuditDaemon::OracleBudgetGate(const Session& session) const {
  // Pre-step budget gate: stop at a step boundary once the tenant's spend
  // meets the budget. The runner checkpoints and parks the session — a
  // non-fatal QuotaExceeded per batch, never a kill — so the audit resumes
  // the moment the budget grows. Overshoot is bounded by one step's calls.
  const uint64_t budget = session.tenant_config->oracle_budget;
  if (OracleSpend(session) < budget) return Status::OK();
  return Status::QuotaExceeded(
      "tenant '" + session.tenant + "' oracle-call budget (" +
      std::to_string(budget) + ") exhausted at step " +
      std::to_string(session.steps_done()) +
      "; session checkpointed — reopen once the budget grows");
}

void AuditDaemon::CheckpointSession(Session& session) {
  if (!session.runner->Checkpoint().ok()) {
    stats_.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
  }
}

bool AuditDaemon::RunBatch(Session& session, uint64_t steps,
                           std::vector<uint8_t>* out) {
  AuditRunner& runner = *session.runner;
  const TenantConfig& tenant_config = *session.tenant_config;
  uint64_t checkpoint_failures = runner.counters().checkpoint_failures;

  for (uint64_t i = 0; i < steps; ++i) {
    const RunOutcome outcome = runner.Advance(1);
    const RunCounters counters = runner.counters();
    stats_.checkpoint_failures.fetch_add(
        counters.checkpoint_failures - checkpoint_failures,
        std::memory_order_relaxed);
    checkpoint_failures = counters.checkpoint_failures;
    // Meter the call's spend durably — before any outcome handling, so a
    // step that failed after judging is still charged. Deltas are computed
    // against the last *successfully charged* totals, so a failed append
    // simply rolls the delta into the next step's charge — acknowledged
    // spend is never lost and never double-counted (Charge acks only after
    // the durable cumulative frame settles).
    const uint64_t oracle_delta =
        counters.oracle_calls - session.metered_oracle_calls;
    const uint64_t bytes_delta =
        counters.store_bytes - session.metered_store_bytes;
    if (oracle_delta != 0 || bytes_delta != 0) {
      const Status charged =
          ledger_->Charge(session.tenant, oracle_delta, bytes_delta);
      if (charged.ok()) {
        session.metered_oracle_calls = counters.oracle_calls;
        session.metered_store_bytes = counters.store_bytes;
      }
    }
    if (outcome == RunOutcome::kFailed || outcome == RunOutcome::kDeadline) {
      // Fatal to the session either way; a spent budget is not a bug, and
      // its runner snapshotted the session so a reopen continues from it.
      const bool deadline = outcome == RunOutcome::kDeadline;
      (deadline ? stats_.deadline_exceeded : stats_.sessions_failed)
          .fetch_add(1, std::memory_order_relaxed);
      AppendError(runner.status().code(), session.audit_id,
                  /*fatal_to_session=*/true, /*fatal_to_connection=*/false,
                  deadline ? "session " + runner.status().message() +
                                 "; reopen to continue from the checkpoint"
                           : runner.status().message(),
                  out);
      return true;
    }
    if (outcome == RunOutcome::kParked && !runner.status().ok()) {
      // The oracle-budget gate parked the session at its checkpoint.
      if (!session.quota_exhausted) {
        session.quota_exhausted = true;
        stats_.quota_exhaustions.fetch_add(1, std::memory_order_relaxed);
      }
      AppendQuota(session.audit_id, "oracle_budget",
                  RemainingAllowance(tenant_config.oracle_budget,
                                     OracleSpend(session)),
                  /*fatal_to_session=*/false, runner.status().message(), out);
      return false;
    }
    StoredAnnotator& stored = *runner.stored();
    if (tenant_config.store_byte_quota != 0 && !stored.degraded()) {
      const uint64_t durable_bytes =
          ledger_->Balance(session.tenant).store_bytes;
      const uint64_t unmetered_bytes =
          counters.store_bytes - session.metered_store_bytes;
      if (durable_bytes + unmetered_bytes >=
          tenant_config.store_byte_quota) {
        // Soft quota: the audit keeps running, but new oracle labels stop
        // being persisted (store hits keep serving) — the same degraded
        // read-only mode a sticky WAL failure drops into. Checkpoints
        // still append so the session stays resumable.
        stored.ForceDegrade(Status::QuotaExceeded(
            "tenant '" + session.tenant + "' store-byte quota (" +
            std::to_string(tenant_config.store_byte_quota) + ") exhausted"));
        stats_.quota_degraded.fetch_add(1, std::memory_order_relaxed);
        AppendQuota(
            session.audit_id, "store_quota", 0, /*fatal_to_session=*/false,
            "tenant '" + session.tenant + "' store-byte quota (" +
                std::to_string(tenant_config.store_byte_quota) +
                ") exhausted; annotation persistence degraded to read-only",
            out);
      }
    }

    const bool degraded = counters.degraded || stored.degraded();
    if (degraded && !session.degraded_notified) {
      session.degraded_notified = true;
      stats_.sessions_degraded.fetch_add(1, std::memory_order_relaxed);
    }

    // The per-step interval push. Finish() mid-run snapshots the partial
    // result — the only place the asymmetric HPD bounds live.
    const StepOutcome& step = runner.last_step();
    const auto partial = runner.session().Finish();
    IntervalUpdateMsg update;
    update.audit_id = session.audit_id;
    update.step = session.steps_done();
    update.annotated_triples = step.annotated_triples;
    update.mu = step.mu;
    if (partial.ok()) {
      update.lower = partial->interval.lower;
      update.upper = partial->interval.upper;
      update.moe = partial->interval.Moe();
    } else {
      update.moe = step.moe;
    }
    update.done = step.done;
    update.stop_reason = static_cast<uint8_t>(step.stop_reason);
    update.degraded = degraded;
    AppendFrameOf(MessageType::kIntervalUpdate, EncodeIntervalUpdate, update,
                  out);

    if (outcome == RunOutcome::kDone || outcome == RunOutcome::kDegraded) {
      AppendReportFrame(session, out);
      return true;
    }
  }
  return false;
}

void AuditDaemon::SettleConnections(Loop& loop) {
  for (auto it = loop.conns.begin(); it != loop.conns.end();) {
    // Each branch below removes at most the current entry.
    const auto next = std::next(it);
    const int fd = it->first;
    Connection& conn = *it->second;
    if (!FlushOutbox(conn)) {
      CloseConnection(loop, fd, Status::IoError("connection write failed"));
    } else if (conn.close_after_flush &&
               conn.outbox_off >= conn.outbox.size()) {
      CloseConnection(loop, fd, Status::OK());
    }
    it = next;
  }
}

void AuditDaemon::ReapIdle(Loop& loop) {
  const auto idle_timeout =
      std::chrono::milliseconds(options_.idle_timeout_ms);
  const Clock::time_point now = Clock::now();
  for (auto it = loop.conns.begin(); it != loop.conns.end();) {
    const auto next = std::next(it);
    if (now - it->second->last_activity > idle_timeout) {
      stats_.idle_reaped.fetch_add(1, std::memory_order_relaxed);
      // A reaped peer is not a protocol failure: sessions checkpoint and
      // detach, and the client resumes on reconnect.
      CloseConnection(loop, it->first, Status::OK());
    }
    it = next;
  }
}

void AuditDaemon::PollOnce(Loop& loop, int timeout_ms) {
  loop.fds.clear();
  loop.fds.push_back({loop.wake_read.get(), POLLIN, 0});
  const bool listening = loop.listener.valid();
  if (listening) loop.fds.push_back({loop.listener.get(), POLLIN, 0});
  const size_t first_conn = loop.fds.size();
  for (const auto& [fd, conn] : loop.conns) {
    short events = POLLIN;
    if (conn->outbox_off < conn->outbox.size()) events |= POLLOUT;
    loop.fds.push_back({fd, events, 0});
  }
  int ready = poll(loop.fds.data(), loop.fds.size(), timeout_ms);
  if (FailpointHit("net.poll")) {
    stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
    ready = -1;
    errno = EIO;
  }
  if (ready < 0 && errno != EINTR) {
    // A loop that cannot poll cannot serve its connections. It takes the
    // normal drain path — and so does every other loop — so the epilogue
    // only ever runs once every loop has stopped at a batch boundary.
    std::fprintf(stderr, "[kgaccd] poll failed: %s; draining\n",
                 std::strerror(errno));
    RequestDrain();
    return;
  }
  if (ready <= 0) return;

  if ((loop.fds[0].revents & POLLIN) != 0) {
    // One read clears a backlog of wakeups; a larger one stays readable
    // and the next poll returns at once.
    uint8_t scratch[256];
    (void)!read(loop.wake_read.get(), scratch, sizeof(scratch));
  }
  if (listening && (loop.fds[1].revents & POLLIN) != 0) DoAccept(loop);
  for (size_t i = first_conn; i < loop.fds.size(); ++i) {
    const short revents = loop.fds[i].revents;
    if (revents == 0) continue;
    const int fd = loop.fds[i].fd;
    auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) continue;  // closed by an earlier handler
    if ((revents & (POLLERR | POLLHUP)) != 0) {
      CloseConnection(loop, fd, Status::OK());
      continue;
    }
    if ((revents & POLLIN) != 0) (void)ServiceReadable(loop, *it->second);
  }
}

void AuditDaemon::DrainLoop(Loop& loop) {
  DrainMsg notice;
  notice.message = "daemon draining; sessions checkpointed, reconnect to "
                   "resume";
  for (auto& [fd, conn] : loop.conns) {
    if (conn->close_after_flush) continue;  // Already on its way out.
    AppendFrameOf(MessageType::kDrain, EncodeDrain, notice, &conn->outbox);
    conn->close_after_flush = true;
  }
  loop.sched.Clear();
}

void AuditDaemon::Serve(Loop& loop) {
  while (!draining()) {
    // Block only when no batch is queued; otherwise just collect arrivals
    // so the DRR pick below sees every tenant's backlog.
    PollOnce(loop, loop.sched.empty() ? kIdlePollMs : 0);
    RunNextBatch(loop);
    SettleConnections(loop);
    ReapIdle(loop);
  }
  // Stop admitting: the listener closes (once every loop's has, new
  // connects are refused by the kernel), live clients get a Drain notice,
  // queued batches are shed.
  loop.listener.Reset();
  DrainLoop(loop);
}

void AuditDaemon::DrainMain() {
  for (auto& loop : loops_) loop->thread.join();

  // Drain epilogue: every live session checkpoints, then every per-KG
  // store settles once — flush, fsync, and a final compaction so a restart
  // replays a minimal log (the checkpoints just written superseded their
  // predecessors; compacting here also heals a sticky WAL, since the index
  // holds only acknowledged records). A failed flush or fsync may leave
  // the newest frames short of durable, so it is counted (`settle_failed=`)
  // and logged. A compaction failure is harmless — whichever log it left
  // installed is complete and durable — and is only logged.
  for (auto& [id, session] : sessions_) CheckpointSession(*session);
  const auto settle = [this](const std::string& what, auto& log) {
    const auto report = [&](const char* op, const Status& status,
                            bool counted) {
      if (status.ok()) return;
      if (counted) {
        stats_.settle_failures.fetch_add(1, std::memory_order_relaxed);
      }
      std::fprintf(stderr, "[kgaccd] drain: %s %s failed: %s\n",
                   what.c_str(), op, status.ToString().c_str());
    };
    report("flush", log.Flush(), true);
    report("sync", log.Sync(), true);
    report("compact", log.Compact(), false);
  };
  for (auto& [name, store] : stores_) settle("store " + name, *store);
  // Same settle for the tenant ledger: fsync the balances and fold each
  // tenant's history to its single live frame.
  if (ledger_ != nullptr) settle("tenant ledger", *ledger_);
  // The Drain notices go out only now, so what they say — sessions
  // checkpointed — holds when they arrive.
  for (auto& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) (void)FlushOutbox(*conn);
    loop->conns.clear();
  }
  sessions_.clear();
}

std::string AuditDaemon::StatsLine() const {
  auto v = [](const std::atomic<uint64_t>& a) {
    return std::to_string(a.load(std::memory_order_relaxed));
  };
  return "accepted=" + v(stats_.connections_accepted) +
         " conn_failed=" + v(stats_.connections_failed) +
         " idle_reaped=" + v(stats_.idle_reaped) +
         " busy=" + v(stats_.busy_rejections) +
         " deadline=" + v(stats_.deadline_exceeded) +
         " opened=" + v(stats_.sessions_opened) +
         " resumed=" + v(stats_.sessions_resumed) +
         " failed=" + v(stats_.sessions_failed) +
         " degraded=" + v(stats_.sessions_degraded) +
         " steps=" + v(stats_.steps_executed) +
         " ckpt_failed=" + v(stats_.checkpoint_failures) +
         " settle_failed=" + v(stats_.settle_failures) +
         " quota_rejected=" + v(stats_.quota_rejections) +
         " quota_exhausted=" + v(stats_.quota_exhaustions) +
         " quota_degraded=" + v(stats_.quota_degraded) +
         " hb_acked=" + v(stats_.heartbeats_acked) +
         " hb_dropped=" + v(stats_.heartbeat_acks_dropped) +
         " faults=" + v(stats_.faults_injected);
}

}  // namespace kgacc
