#include "kgacc/net/server.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kgacc/eval/report.h"
#include "kgacc/eval/session.h"
#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/net/client.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/failpoint.h"

#include <gtest/gtest.h>

// End-to-end coverage of the audit daemon's robustness model, in-process:
// a real AuditDaemon on a loopback socket, driven by the real AuditClient
// and by a raw protocol peer for the adversarial cases. The recurring
// assertion is the crash-tolerance contract — whatever happens to
// connections or processes, the audit's final report is byte-identical to
// an uninterrupted run and already-paid labels are never re-paid.

namespace kgacc {
namespace {

std::string TempDir(const char* name) {
  const std::string dir = testing::TempDir() + "/kgacc_daemon_test_" + name +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A deterministic ~600-triple population with clustered errors — small
/// enough that default-config audits converge in well under a second.
KnowledgeGraph TestKg() {
  KnowledgeGraphBuilder builder;
  for (int s = 0; s < 200; ++s) {
    const int facts = 1 + (s * 7 + 3) % 5;
    for (int o = 0; o < facts; ++o) {
      // Cluster-correlated labels: "bad" subjects are wrong more often.
      const bool bad_subject = (s % 11) == 0;
      const bool correct = bad_subject ? ((s + o) % 3 == 0)
                                       : ((s * 31 + o * 17) % 10 != 0);
      builder.Add("s" + std::to_string(s), "p" + std::to_string(o % 3),
                  "o" + std::to_string(s * 10 + o), correct);
    }
  }
  return *builder.Build();
}

/// The local, storeless, networkless reference run the daemon must match.
EvaluationResult ReferenceRun(const KnowledgeGraph& kg, uint64_t seed) {
  OracleAnnotator oracle;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, oracle, config, seed);
  auto result = session.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

std::string RenderedJson(const std::string& dataset,
                         const std::string& design,
                         const EvaluationResult& result) {
  ReportContext context;
  context.dataset_name = dataset;
  context.design_name = design;
  EvaluationConfig config;
  return RenderJsonReport(context, config, result);
}

AuditDaemon::Options DaemonOptions(const std::string& store_dir) {
  AuditDaemon::Options options;
  options.port = 0;
  options.store_dir = store_dir;
  options.workers = 2;
  return options;
}

AuditClientOptions ClientOptions(uint16_t port) {
  AuditClientOptions options;
  options.port = port;
  options.recv_timeout_ms = 2000;
  return options;
}

/// A raw protocol peer for the adversarial tests: speaks exactly the bytes
/// the test tells it to, no retries, no cleverness.
class TestPeer {
 public:
  Status Connect(uint16_t port, bool hello = true) {
    auto fd = ConnectTcp(port);
    if (!fd.ok()) return fd.status();
    fd_ = std::move(*fd);
    KGACC_RETURN_IF_ERROR(SetRecvTimeoutMs(fd_.get(), 1500));
    if (hello) {
      KGACC_RETURN_IF_ERROR(
          Send(FrameOf(MessageType::kHello, EncodeHello, HelloMsg{})));
      auto ack = Read();
      if (!ack.ok()) return ack.status();
      if (ack->type != static_cast<uint8_t>(MessageType::kHelloAck)) {
        return Status::Internal(std::string("expected HelloAck, got ") +
                                MessageTypeName(ack->type));
      }
    }
    return Status::OK();
  }

  Status Send(const std::vector<uint8_t>& bytes) {
    return SendAll(fd_.get(), {bytes.data(), bytes.size()});
  }

  /// Next frame, or kDeadlineExceeded on a quiet socket, or IoError once
  /// the daemon closed on us.
  Result<NetFrame> Read() {
    NetFrame frame;
    while (true) {
      KGACC_ASSIGN_OR_RETURN(const bool have, assembler_.Next(&frame));
      if (have) return frame;
      uint8_t buf[4096];
      KGACC_ASSIGN_OR_RETURN(const size_t n,
                             RecvSome(fd_.get(), buf, sizeof(buf)));
      if (n == 0) return Status::IoError("peer: daemon closed connection");
      assembler_.Feed({buf, n});
    }
  }

  /// Bytes received but not yet returned as frames.
  size_t buffered_bytes() const { return assembler_.buffered_bytes(); }

  /// True when the daemon has closed the connection (EOF or reset).
  bool ReadUntilClosed() {
    for (int i = 0; i < 20; ++i) {
      auto frame = Read();
      if (!frame.ok()) {
        return frame.status().code() != StatusCode::kDeadlineExceeded;
      }
    }
    return false;
  }

 private:
  OwnedFd fd_;
  FrameAssembler assembler_{kDefaultMaxFrameBytes};
};

/// Drives every listed audit open on `peer`'s connection to its report,
/// one batch in flight per audit, interleaved on the one connection.
std::map<uint64_t, AuditReportMsg> RunToReports(
    TestPeer& peer, const std::vector<uint64_t>& audit_ids) {
  constexpr uint64_t kBatchSteps = 3;
  std::map<uint64_t, AuditReportMsg> reports;
  std::map<uint64_t, uint64_t> updates_due;
  std::map<uint64_t, bool> converged;  // The report is on its way.
  while (reports.size() < audit_ids.size()) {
    for (const uint64_t id : audit_ids) {
      if (converged[id] || updates_due[id] != 0) continue;
      const StepBatchMsg batch{id, kBatchSteps};
      EXPECT_TRUE(
          peer.Send(FrameOf(MessageType::kStepBatch, EncodeStepBatch, batch))
              .ok());
      updates_due[id] = kBatchSteps;
    }
    auto frame = peer.Read();
    if (!frame.ok()) {
      ADD_FAILURE() << frame.status().ToString();
      return reports;
    }
    const std::span<const uint8_t> payload(frame->payload.data(),
                                           frame->payload.size());
    if (frame->type == static_cast<uint8_t>(MessageType::kIntervalUpdate)) {
      auto update = DecodeIntervalUpdate(payload);
      EXPECT_TRUE(update.ok());
      if (update.ok() && updates_due[update->audit_id] > 0) {
        --updates_due[update->audit_id];
      }
      if (update.ok() && update->done) converged[update->audit_id] = true;
    } else if (frame->type ==
               static_cast<uint8_t>(MessageType::kAuditReport)) {
      auto report = DecodeAuditReport(payload);
      EXPECT_TRUE(report.ok());
      if (report.ok()) reports.emplace(report->audit_id, *report);
    } else {
      auto error = DecodeError(payload);
      ADD_FAILURE() << "unexpected frame " << MessageTypeName(frame->type)
                    << (error.ok() ? ": " + error->message : "");
      return reports;
    }
  }
  return reports;
}

/// Opens `open` on the peer's connection and expects AuditOpened.
AuditOpenedMsg OpenOn(TestPeer& peer, const OpenAuditMsg& open) {
  EXPECT_TRUE(
      peer.Send(FrameOf(MessageType::kOpenAudit, EncodeOpenAudit, open)).ok());
  auto frame = peer.Read();
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  if (!frame.ok()) return {};
  EXPECT_EQ(frame->type, static_cast<uint8_t>(MessageType::kAuditOpened))
      << MessageTypeName(frame->type);
  auto opened =
      DecodeAuditOpened({frame->payload.data(), frame->payload.size()});
  EXPECT_TRUE(opened.ok());
  return opened.ok() ? *opened : AuditOpenedMsg{};
}

/// Opens `open` on a fresh connection, runs `steps` steps, then detaches the
/// session: CloseAudit, fenced by a heartbeat whose ack leaves the loop
/// after the detach did. The kernel picks the connection's loop. Returns
/// the AuditOpened reply.
AuditOpenedMsg StepAndDetach(uint16_t port, const OpenAuditMsg& open,
                             uint64_t steps) {
  TestPeer peer;
  EXPECT_TRUE(peer.Connect(port).ok());
  const AuditOpenedMsg opened = OpenOn(peer, open);
  if (steps != 0) {
    EXPECT_TRUE(peer.Send(FrameOf(MessageType::kStepBatch, EncodeStepBatch,
                                  StepBatchMsg{open.audit_id, steps}))
                    .ok());
  }
  for (uint64_t i = 0; i < steps; ++i) {
    auto update = peer.Read();
    EXPECT_TRUE(update.ok()) << update.status().ToString();
    if (!update.ok()) return opened;
    EXPECT_EQ(update->type,
              static_cast<uint8_t>(MessageType::kIntervalUpdate));
  }
  EXPECT_TRUE(peer.Send(FrameOf(MessageType::kCloseAudit, EncodeCloseAudit,
                                CloseAuditMsg{open.audit_id}))
                  .ok());
  EXPECT_TRUE(peer.Send(FrameOf(MessageType::kHeartbeat, EncodeHeartbeat,
                                HeartbeatMsg{open.audit_id}))
                  .ok());
  auto ack = peer.Read();
  EXPECT_TRUE(ack.ok()) << ack.status().ToString();
  if (ack.ok()) {
    EXPECT_EQ(ack->type, static_cast<uint8_t>(MessageType::kHeartbeatAck));
  }
  return opened;
}

/// Hello, OpenAudit and a one-step StepBatch in one buffer, as a pipelining
/// client sends them.
std::vector<uint8_t> PipelinedOpen(const OpenAuditMsg& open) {
  std::vector<uint8_t> bytes;
  AppendFrameOf(MessageType::kHello, EncodeHello, HelloMsg{}, &bytes);
  AppendFrameOf(MessageType::kOpenAudit, EncodeOpenAudit, open, &bytes);
  AppendFrameOf(MessageType::kStepBatch, EncodeStepBatch,
                StepBatchMsg{open.audit_id, 1}, &bytes);
  return bytes;
}

TEST(AuditDaemonTest, HappyPathMatchesLocalRunByteForByte) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);

  const std::string dir = TempDir("happy");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  uint64_t updates = 0;
  auto report = client.RunAudit(open, [&](const IntervalUpdateMsg& update) {
    ++updates;
    EXPECT_GT(update.annotated_triples, 0u);
    EXPECT_GE(update.upper, update.lower);
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The subscription delivered one update per step, and the shipped result
  // renders byte-identically to the storeless local run.
  EXPECT_EQ(updates, static_cast<uint64_t>(reference.iterations));
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  EXPECT_GT(report->oracle_calls, 0u);
  EXPECT_FALSE(report->degraded);
  EXPECT_EQ(daemon.stats().sessions_opened.load(), 1u);
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
  daemon.Stop();
}

TEST(AuditDaemonTest, SanitizedKgNamesNeverShareAStoreFile) {
  // Regression: the store filename maps non-alphanumerics to '_', so "a b"
  // and "a_b" used to alias onto one WAL file — two AnnotationStore
  // instances over one log with separate stdio buffers, i.e. interleaved
  // frames and corruption. The hash suffix keeps the mapping injective:
  // distinct registered names get distinct files and audit independently.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("aliasing");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("a b", &kg);
  daemon.RegisterKg("a_b", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "a b";
  AuditClient first(ClientOptions(daemon.port()));
  auto report1 = first.RunAudit(open);
  ASSERT_TRUE(report1.ok()) << report1.status().ToString();

  open.audit_id = 2;
  open.kg_name = "a_b";
  AuditClient second(ClientOptions(daemon.port()));
  auto report2 = second.RunAudit(open);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  // The stores are independent: the second KG repaid nothing from the
  // first one's labels (they are different namespaces, whatever the
  // sanitized name says).
  EXPECT_GT(report2->oracle_calls, 0u);
  daemon.Stop();

  // Exactly one per-KG store each (plus the daemon's tenant quota ledger,
  // which is not a KG namespace).
  size_t kg_wal_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".wal") continue;
    kg_wal_files +=
        entry.path().filename().string().rfind("kg_", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(kg_wal_files, 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/tenant_ledger.wal"));
}

TEST(AuditDaemonTest, ReopeningAFinishedAuditRepaysNothing) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("reopen");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 9;
  open.kg_name = "kg";
  AuditClient first(ClientOptions(daemon.port()));
  auto report1 = first.RunAudit(open);
  ASSERT_TRUE(report1.ok()) << report1.status().ToString();
  ASSERT_GT(report1->oracle_calls, 0u);

  // Same audit id, same store: the daemon resumes the finished session to
  // its end state and replays the report — zero oracle spend.
  AuditClient second(ClientOptions(daemon.port()));
  auto report2 = second.RunAudit(open);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_TRUE(second.stats().opened.resumed);
  EXPECT_GT(second.stats().opened.labels_on_file, 0u);
  EXPECT_EQ(report2->oracle_calls, 0u);
  EXPECT_EQ(report2->store_hits, 0u);
  EXPECT_EQ(RenderedJson("kg", report1->design_name, report1->result),
            RenderedJson("kg", report2->design_name, report2->result));
  daemon.Stop();
}

TEST(AuditDaemonTest, DaemonRestartMidAuditResumesByteIdentical) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  ASSERT_GE(reference.iterations, 4);
  const std::string dir = TempDir("restart");

  OpenAuditMsg open;
  open.audit_id = 5;
  open.kg_name = "kg";

  // Leg 1: a step budget stops the session halfway — the session fails
  // with kDeadlineExceeded (explicitly, to the client) but its labels and
  // checkpoint are durable. Then the daemon goes away entirely.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    OpenAuditMsg budgeted = open;
    budgeted.max_steps = static_cast<uint64_t>(reference.iterations) / 2;
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(budgeted);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(daemon.stats().deadline_exceeded.load(), 1u);
    EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);  // budget != bug
    daemon.Stop();
  }

  // Leg 2: a fresh daemon process-equivalent over the same store resumes
  // the audit (no budget this time) to the byte-identical reference.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(client.stats().opened.resumed);
    EXPECT_GT(client.stats().opened.start_step, 0u);
    EXPECT_GT(client.stats().opened.labels_on_file, 0u);
    // The resumed leg pays only the not-yet-labeled triples.
    EXPECT_LT(report->oracle_calls,
              static_cast<uint64_t>(reference.annotated_triples));
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "SRS", reference));
    EXPECT_EQ(daemon.stats().sessions_resumed.load(), 1u);
    daemon.Stop();
  }
}

/// The encoded report frame of `result` under fixed metadata: every field
/// of the result, doubles bit for bit, as the wire carries it.
std::vector<uint8_t> EncodedResult(const EvaluationResult& result) {
  AuditReportMsg report;
  report.audit_id = 1;
  report.design_name = "SRS";
  report.dataset_name = "kg";
  report.result = result;
  ByteWriter w;
  EncodeAuditReport(report, &w);
  return w.bytes();
}

TEST(AuditDaemonTest, ReplayAfterRestartAndCompactionMatchesTheLocalRun) {
  // A finished audit checkpoints only what its report reads. After the
  // daemon restarts, and again after the store is compacted offline, a
  // reopen must land the local RunEvaluation's report byte for byte and pay
  // no label.
  const KnowledgeGraph kg = TestKg();
  OracleAnnotator oracle;
  SrsSampler sampler(kg, SrsConfig{});
  const Result<EvaluationResult> local =
      RunEvaluation(sampler, oracle, EvaluationConfig{}, 42);
  ASSERT_TRUE(local.ok());
  const std::string dir = TempDir("replay_compact");
  OpenAuditMsg open;
  open.audit_id = 12;
  open.kg_name = "kg";
  const auto run = [&](bool replay) {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(client.stats().opened.resumed, replay);
    if (replay) {
      EXPECT_EQ(report->oracle_calls, 0u);
      EXPECT_EQ(report->store_hits, 0u);
      EXPECT_EQ(daemon.stats().sessions_resumed.load(), 1u);
    }
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "SRS", *local));
    EXPECT_EQ(EncodedResult(report->result), EncodedResult(*local));
    daemon.Stop();
  };
  run(/*replay=*/false);
  run(/*replay=*/true);

  std::string wal;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("kg_", 0) == 0 &&
        entry.path().extension() == ".wal") {
      wal = entry.path().string();
    }
  }
  ASSERT_FALSE(wal.empty());
  {
    auto store = AnnotationStore::Open(wal);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Compact().ok());
    // The finished audit's checkpoint is a few hundred bytes, not a copy
    // of its distinct sets.
    auto checkpoint = (*store)->LatestCheckpoint(open.audit_id);
    ASSERT_TRUE(checkpoint.ok() && checkpoint->has_value());
    EXPECT_LT((*checkpoint)->size(), 256u);
  }
  run(/*replay=*/true);
}

TEST(AuditDaemonTest, SessionLimitAnswersBusyNeverHangs) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("busy");
  auto options = DaemonOptions(dir);
  options.max_sessions = 1;
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  OpenAuditMsg first;
  first.audit_id = 1;
  first.kg_name = "kg";
  ASSERT_TRUE(
      peer.Send(FrameOf(MessageType::kOpenAudit, EncodeOpenAudit, first))
          .ok());
  auto opened = peer.Read();
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));

  OpenAuditMsg second = first;
  second.audit_id = 2;  // a *different* session: over the limit
  ASSERT_TRUE(
      peer.Send(FrameOf(MessageType::kOpenAudit, EncodeOpenAudit, second))
          .ok());
  auto busy = peer.Read();
  ASSERT_TRUE(busy.ok());
  ASSERT_EQ(busy->type, static_cast<uint8_t>(MessageType::kBusy));
  auto msg = DecodeBusy({busy->payload.data(), busy->payload.size()});
  ASSERT_TRUE(msg.ok());
  EXPECT_GT(msg->retry_after_ms, 0u);
  EXPECT_FALSE(msg->reason.empty());
  EXPECT_GE(daemon.stats().busy_rejections.load(), 1u);
  daemon.Stop();
}

TEST(AuditDaemonTest, UnknownKgIsAnExplicitNotFoundError) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("notfound");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "no-such-population";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
  daemon.Stop();
}

TEST(AuditDaemonTest, FramesBeforeHelloFailTheConnection) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("hello_first");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port(), /*hello=*/false).ok());
  HeartbeatMsg probe;
  probe.nonce = 1;
  ASSERT_TRUE(
      peer.Send(FrameOf(MessageType::kHeartbeat, EncodeHeartbeat, probe))
          .ok());
  auto reply = peer.Read();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, static_cast<uint8_t>(MessageType::kError));
  auto err = DecodeError({reply->payload.data(), reply->payload.size()});
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err->fatal_to_connection);
  EXPECT_TRUE(peer.ReadUntilClosed());
  daemon.Stop();
}

TEST(AuditDaemonTest, GarbageBytesFailTheConnectionNotTheDaemon) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("garbage");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer vandal;
  ASSERT_TRUE(vandal.Connect(daemon.port()).ok());
  std::vector<uint8_t> garbage(256);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<uint8_t>(0xA5 ^ (i * 13));
  }
  ASSERT_TRUE(vandal.Send(garbage).ok());
  EXPECT_TRUE(vandal.ReadUntilClosed());
  EXPECT_GE(daemon.stats().connections_failed.load(), 1u);

  // The daemon shrugged it off: a well-behaved audit still completes.
  OpenAuditMsg open;
  open.audit_id = 3;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  daemon.Stop();
}

TEST(AuditDaemonTest, HeartbeatsAckedAndDropFailpointIsCountedNotFatal) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("heartbeat");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  HeartbeatMsg probe;
  probe.nonce = 7;
  ASSERT_TRUE(
      peer.Send(FrameOf(MessageType::kHeartbeat, EncodeHeartbeat, probe))
          .ok());
  auto ack = peer.Read();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, static_cast<uint8_t>(MessageType::kHeartbeatAck));
  auto decoded =
      DecodeHeartbeat({ack->payload.data(), ack->payload.size()});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->nonce, 7u);
  EXPECT_EQ(daemon.stats().heartbeats_acked.load(), 1u);

  {
    ScopedFailpoints fp("net.heartbeat.drop=once");
    ASSERT_TRUE(fp.status().ok());
    probe.nonce = 8;
    ASSERT_TRUE(
        peer.Send(FrameOf(MessageType::kHeartbeat, EncodeHeartbeat, probe))
            .ok());
    auto dropped = peer.Read();  // nothing comes back
    ASSERT_FALSE(dropped.ok());
    EXPECT_EQ(dropped.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(daemon.stats().heartbeat_acks_dropped.load(), 1u);
    EXPECT_GE(daemon.stats().faults_injected.load(), 1u);
  }

  // Disarmed: liveness is back, same connection.
  probe.nonce = 9;
  ASSERT_TRUE(
      peer.Send(FrameOf(MessageType::kHeartbeat, EncodeHeartbeat, probe))
          .ok());
  ack = peer.Read();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->type, static_cast<uint8_t>(MessageType::kHeartbeatAck));
  daemon.Stop();
}

TEST(AuditDaemonTest, TornReadFailpointCostsOneConnectionAuditStillLands) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("torn");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  ScopedFailpoints fp("net.read.torn=once");
  ASSERT_TRUE(fp.status().ok());
  OpenAuditMsg open;
  open.audit_id = 6;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The injected bit flip killed exactly one connection (CRC caught it);
  // the client rebuilt and the audit finished on the reference bytes.
  EXPECT_GE(daemon.stats().faults_injected.load(), 1u);
  EXPECT_GE(daemon.stats().connections_failed.load(), 1u);
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  daemon.Stop();
}

TEST(AuditDaemonTest, GracefulDrainCheckpointsAndResumesElsewhere) {
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("drain");

  // A raw peer runs a few steps, then the daemon drains underneath it.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    TestPeer peer;
    ASSERT_TRUE(peer.Connect(daemon.port()).ok());
    OpenAuditMsg open;
    open.audit_id = 8;
    open.kg_name = "kg";
    ASSERT_TRUE(
        peer.Send(FrameOf(MessageType::kOpenAudit, EncodeOpenAudit, open))
            .ok());
    auto opened = peer.Read();
    ASSERT_TRUE(opened.ok());
    ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));
    StepBatchMsg batch;
    batch.audit_id = 8;
    batch.steps = 2;
    ASSERT_TRUE(
        peer.Send(FrameOf(MessageType::kStepBatch, EncodeStepBatch, batch))
            .ok());
    for (int i = 0; i < 2; ++i) {
      auto update = peer.Read();
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      ASSERT_EQ(update->type,
                static_cast<uint8_t>(MessageType::kIntervalUpdate));
    }

    daemon.RequestDrain();
    // The peer is told, then the connection closes; Stop() returns — no
    // hang waiting on the abandoned session, which checkpointed instead.
    bool saw_drain = false;
    for (int i = 0; i < 20; ++i) {
      auto frame = peer.Read();
      if (!frame.ok()) break;
      if (frame->type == static_cast<uint8_t>(MessageType::kDrain)) {
        saw_drain = true;
      }
    }
    EXPECT_TRUE(saw_drain);
    daemon.Wait();
  }

  // The drained checkpoint is a full resume point: a second daemon over
  // the same store finishes the audit on the reference bytes.
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    OpenAuditMsg open;
    open.audit_id = 8;
    open.kg_name = "kg";
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(client.stats().opened.resumed);
    EXPECT_EQ(client.stats().opened.start_step, 2u);
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "SRS", reference));
    daemon.Stop();
  }
}

TEST(AuditDaemonTest, CheckpointFailuresAtDetachAndDrainAreCounted) {
  // The detach/drain snapshots are not best-effort (void) calls: a failing
  // one is counted in the stats line, and the daemon still drains cleanly.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("ckpt_fail");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  OpenAuditMsg open;
  open.audit_id = 12;
  open.kg_name = "kg";
  open.checkpoint_every = 100;  // Steps leave the snapshot to the detach.
  ASSERT_TRUE(
      peer.Send(FrameOf(MessageType::kOpenAudit, EncodeOpenAudit, open)).ok());
  auto opened = peer.Read();
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));
  StepBatchMsg batch;
  batch.audit_id = 12;
  batch.steps = 2;
  ASSERT_TRUE(
      peer.Send(FrameOf(MessageType::kStepBatch, EncodeStepBatch, batch))
          .ok());
  for (int i = 0; i < 2; ++i) {
    auto update = peer.Read();
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    ASSERT_EQ(update->type,
              static_cast<uint8_t>(MessageType::kIntervalUpdate));
  }
  EXPECT_EQ(daemon.stats().checkpoint_failures.load(), 0u);

  ScopedFailpoints armed("store.checkpoint=prob:1");
  ASSERT_TRUE(armed.status().ok());
  daemon.RequestDrain();
  while (peer.Read().ok()) {
  }
  daemon.Wait();
  EXPECT_GT(daemon.stats().checkpoint_failures.load(), 0u);
  EXPECT_NE(daemon.StatsLine().find("ckpt_failed=1"), std::string::npos)
      << daemon.StatsLine();
}

TEST(AuditDaemonTest, DrainSettleFailuresAreCountedAndResumeStaysExact) {
  // The drain's store flush/fsync statuses are not discarded: with every
  // WAL fsync failing, the settle failures are counted in the stats line,
  // the drain still completes, and a restarted daemon resumes the audit
  // onto the reference bytes.
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("settle_fail");
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    TestPeer peer;
    ASSERT_TRUE(peer.Connect(daemon.port()).ok());
    OpenAuditMsg open;
    open.audit_id = 14;
    open.kg_name = "kg";
    ASSERT_TRUE(
        peer.Send(FrameOf(MessageType::kOpenAudit, EncodeOpenAudit, open))
            .ok());
    auto opened = peer.Read();
    ASSERT_TRUE(opened.ok());
    ASSERT_EQ(opened->type, static_cast<uint8_t>(MessageType::kAuditOpened));
    StepBatchMsg batch;
    batch.audit_id = 14;
    batch.steps = 2;
    ASSERT_TRUE(
        peer.Send(FrameOf(MessageType::kStepBatch, EncodeStepBatch, batch))
            .ok());
    for (int i = 0; i < 2; ++i) {
      auto update = peer.Read();
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      ASSERT_EQ(update->type,
                static_cast<uint8_t>(MessageType::kIntervalUpdate));
    }
    EXPECT_EQ(daemon.stats().settle_failures.load(), 0u);

    ScopedFailpoints armed("wal.sync=prob:1");
    ASSERT_TRUE(armed.status().ok());
    daemon.RequestDrain();
    while (peer.Read().ok()) {
    }
    daemon.Wait();
    EXPECT_GT(daemon.stats().settle_failures.load(), 0u);
    EXPECT_EQ(daemon.StatsLine().find("settle_failed=0"), std::string::npos)
        << daemon.StatsLine();
    EXPECT_NE(daemon.StatsLine().find("settle_failed="), std::string::npos)
        << daemon.StatsLine();
  }

  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  OpenAuditMsg open;
  open.audit_id = 14;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(client.stats().opened.resumed);
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  daemon.Stop();
}

TEST(AuditDaemonTest, PollFailureDrainsCleanlyAndResumesByteIdentical) {
  // A loop whose poll() fails takes the normal drain path: every loop
  // stops at a batch boundary before the epilogue checkpoints and settles,
  // so the daemon exits cleanly and a restart resumes on the reference.
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  const std::string dir = TempDir("poll_fail");
  {
    AuditDaemon daemon(DaemonOptions(dir));
    daemon.RegisterKg("kg", &kg);
    ASSERT_TRUE(daemon.Start().ok());
    TestPeer peer;
    ASSERT_TRUE(peer.Connect(daemon.port()).ok());
    OpenAuditMsg open;
    open.audit_id = 16;
    open.kg_name = "kg";
    OpenOn(peer, open);
    StepBatchMsg batch;
    batch.audit_id = 16;
    batch.steps = 2;
    ASSERT_TRUE(
        peer.Send(FrameOf(MessageType::kStepBatch, EncodeStepBatch, batch))
            .ok());
    for (int i = 0; i < 2; ++i) {
      auto update = peer.Read();
      ASSERT_TRUE(update.ok()) << update.status().ToString();
      ASSERT_EQ(update->type,
                static_cast<uint8_t>(MessageType::kIntervalUpdate));
    }

    ScopedFailpoints armed("net.poll=once");
    ASSERT_TRUE(armed.status().ok());
    // No RequestDrain: the failed poll alone must bring the daemon down.
    daemon.Wait();
    EXPECT_TRUE(daemon.draining());
    EXPECT_GE(daemon.stats().faults_injected.load(), 1u);
    EXPECT_EQ(daemon.stats().checkpoint_failures.load(), 0u);
    EXPECT_EQ(daemon.stats().settle_failures.load(), 0u);
    bool saw_drain = false;
    for (int i = 0; i < 20; ++i) {
      auto frame = peer.Read();
      if (!frame.ok()) break;
      saw_drain |= frame->type == static_cast<uint8_t>(MessageType::kDrain);
    }
    EXPECT_TRUE(saw_drain);
  }

  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  OpenAuditMsg open;
  open.audit_id = 16;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(daemon.port()));
  auto report = client.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(client.stats().opened.resumed);
  EXPECT_EQ(client.stats().opened.start_step, 2u);
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", reference));
  daemon.Stop();
}

TEST(AuditDaemonTest, ANetworkedStepCostsAtMostTwoContextSwitches) {
  // Run-to-completion: the loop that reads a StepBatch runs it and writes
  // the reply, so a step blocks two threads once each (the client in recv,
  // the loop in poll) — two voluntary context switches. A handoff to a
  // worker thread and back would add two more.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("ctx_switches");
  auto options = DaemonOptions(dir);
  options.workers = 1;
  options.sync_checkpoints = false;  // No fsync wait inside a step.
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 17;
  open.kg_name = "kg";
  open.epsilon = 0.01;  // Hundreds of 10-triple steps.
  open.checkpoint_every = 1u << 20;
  auto client_options = ClientOptions(daemon.port());
  client_options.batch_steps = 1;
  AuditClient client(client_options);
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  auto report = client.RunAudit(open);
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const uint64_t steps = client.stats().updates_received;
  ASSERT_GE(steps, 200u);
  const double switches_per_step =
      static_cast<double>(after.ru_nvcsw - before.ru_nvcsw) /
      static_cast<double>(steps);
  std::printf("%llu steps, %.2f voluntary context switches per step\n",
              static_cast<unsigned long long>(steps), switches_per_step);
  EXPECT_LE(switches_per_step, 2.5);
  daemon.Stop();
}

TEST(AuditDaemonTest, SessionDetachedOnOneLoopIsReadoptedOnAnother) {
  // Audit 1 opens on one connection and is re-adopted by 15 more
  // connections in turn, each running a step while two or more remain; a
  // last one runs it to its end. The kernel spreads connections over the
  // two loops, so unless all 17 land on one loop (odds 2^-16) the session
  // detaches on one loop and is re-adopted on the other, and the report is
  // still the reference.
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference = ReferenceRun(kg, 42);
  ASSERT_GE(reference.iterations, 2);
  const uint64_t last_step = static_cast<uint64_t>(reference.iterations) - 2;
  const std::string dir = TempDir("readopt_cross_loop");
  auto options = DaemonOptions(dir);
  options.workers = 2;
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "kg";
  uint64_t steps_done = 0;
  for (uint64_t i = 0; i < 16; ++i) {
    const uint64_t steps = steps_done < last_step ? 1 : 0;
    const AuditOpenedMsg opened = StepAndDetach(daemon.port(), open, steps);
    EXPECT_EQ(opened.resumed, i > 0);
    EXPECT_EQ(opened.start_step, steps_done);
    steps_done += steps;
  }
  TestPeer adopter;
  ASSERT_TRUE(adopter.Connect(daemon.port()).ok());
  const AuditOpenedMsg readopted = OpenOn(adopter, open);
  EXPECT_TRUE(readopted.resumed);
  EXPECT_EQ(readopted.start_step, steps_done);

  const auto reports = RunToReports(adopter, {1});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(RenderedJson("kg", reports.at(1).design_name,
                         reports.at(1).result),
            RenderedJson("kg", "SRS", reference));
  EXPECT_EQ(daemon.stats().sessions_resumed.load(), 16u);
  daemon.Stop();
}

TEST(AuditDaemonTest, OneConnectionRunsAuditsOfDifferentLoopsOnItsOwn) {
  // Audits 1 and 2 take turns on 16 connections, one step each, so they
  // run on both loops (unless all 16 land on one, odds 2^-15). A last
  // connection adopts both and runs them interleaved on its own loop, each
  // to its own reference.
  const KnowledgeGraph kg = TestKg();
  const EvaluationResult reference42 = ReferenceRun(kg, 42);
  const EvaluationResult reference7 = ReferenceRun(kg, 7);
  ASSERT_GT(reference42.iterations, 8);
  ASSERT_GT(reference7.iterations, 8);
  const std::string dir = TempDir("two_audits_one_conn");
  auto options = DaemonOptions(dir);
  options.workers = 2;
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.kg_name = "kg";
  for (int i = 0; i < 16; ++i) {
    open.audit_id = 1 + i % 2;
    open.seed = open.audit_id == 1 ? 42 : 7;
    EXPECT_EQ(StepAndDetach(daemon.port(), open, 1).start_step,
              static_cast<uint64_t>(i / 2));
  }
  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port()).ok());
  for (const uint64_t id : {1, 2}) {
    open.audit_id = id;
    open.seed = id == 1 ? 42 : 7;
    EXPECT_EQ(OpenOn(peer, open).start_step, 8u);
  }

  const auto reports = RunToReports(peer, {1, 2});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(RenderedJson("kg", reports.at(1).design_name,
                         reports.at(1).result),
            RenderedJson("kg", "SRS", reference42));
  EXPECT_EQ(RenderedJson("kg", reports.at(2).design_name,
                         reports.at(2).result),
            RenderedJson("kg", "SRS", reference7));
  daemon.Stop();
}

TEST(AuditDaemonTest, PipelinedOpenAnswersInOneFlush) {
  // Hello, OpenAudit and the first StepBatch in one write: the loop that
  // accepts the connection answers all three, and writes the answers
  // together, so they arrive in one read.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("pipelined_open");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port(), /*hello=*/false).ok());
  OpenAuditMsg open;
  open.audit_id = 3;
  open.kg_name = "kg";
  ASSERT_TRUE(peer.Send(PipelinedOpen(open)).ok());
  for (const MessageType expected :
       {MessageType::kHelloAck, MessageType::kAuditOpened,
        MessageType::kIntervalUpdate}) {
    auto frame = peer.Read();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, static_cast<uint8_t>(expected))
        << MessageTypeName(frame->type);
    if (expected == MessageType::kHelloAck) {
      EXPECT_GT(peer.buffered_bytes(), 0u);
    }
  }
  EXPECT_EQ(peer.buffered_bytes(), 0u);
  EXPECT_EQ(daemon.stats().steps_executed.load(), 1u);
  daemon.Stop();
}

TEST(AuditDaemonTest, PipelinedStepBehindARejectedOpenIsHarmless) {
  // The open names no registered KG: it earns an Error, and the StepBatch
  // behind it a session-fatal Error. Neither is fatal to the connection,
  // which then opens a valid audit and runs it to the reference report.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("pipelined_rejected");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  TestPeer peer;
  ASSERT_TRUE(peer.Connect(daemon.port(), /*hello=*/false).ok());
  OpenAuditMsg open;
  open.audit_id = 4;
  open.kg_name = "no-such-population";
  ASSERT_TRUE(peer.Send(PipelinedOpen(open)).ok());
  auto ack = peer.Read();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->type, static_cast<uint8_t>(MessageType::kHelloAck));
  for (const StatusCode code :
       {StatusCode::kNotFound, StatusCode::kFailedPrecondition}) {
    auto frame = peer.Read();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, static_cast<uint8_t>(MessageType::kError));
    auto error = DecodeError({frame->payload.data(), frame->payload.size()});
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, static_cast<uint8_t>(code)) << error->message;
    EXPECT_EQ(error->audit_id, 4u);
    EXPECT_TRUE(error->fatal_to_session);
    EXPECT_FALSE(error->fatal_to_connection);
  }

  open.kg_name = "kg";
  EXPECT_FALSE(OpenOn(peer, open).resumed);
  const auto reports = RunToReports(peer, {4});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(RenderedJson("kg", reports.at(4).design_name,
                         reports.at(4).result),
            RenderedJson("kg", "SRS", ReferenceRun(kg, 42)));
  EXPECT_EQ(daemon.stats().sessions_failed.load(), 0u);
  daemon.Stop();
}

TEST(AuditDaemonTest, AReplayCostsAtMostFourContextSwitches) {
  // Replaying a finished audit is one round trip: the client writes Hello,
  // OpenAudit and StepBatch at once, and the loop that accepts the
  // connection answers all three in one write. The client blocks once, on
  // its reply, and the loop at most three times: for the connect, the
  // request and the close.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("replay_ctx_switches");
  auto options = DaemonOptions(dir);
  options.workers = 1;
  options.sync_checkpoints = false;  // No fsync wait inside a replay.
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 18;
  open.kg_name = "kg";
  {
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  constexpr int kReplays = 50;
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  for (int i = 0; i < kReplays; ++i) {
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->oracle_calls, 0u);
  }
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const double switches_per_replay =
      static_cast<double>(after.ru_nvcsw - before.ru_nvcsw) / kReplays;
  std::printf("%.2f voluntary context switches per replay\n",
              switches_per_replay);
  EXPECT_LE(switches_per_replay, 4.0);
  daemon.Stop();
}

TEST(AuditDaemonTest, SecondDaemonOnTheSamePortFailsToStart) {
  // The loops share the port through SO_REUSEPORT, which another daemon of
  // the same user could join. A second daemon on a busy port must fail to
  // start instead, and the first keeps serving.
  const KnowledgeGraph kg = TestKg();
  AuditDaemon first(DaemonOptions(TempDir("port_first")));
  first.RegisterKg("kg", &kg);
  ASSERT_TRUE(first.Start().ok());

  auto options = DaemonOptions(TempDir("port_second"));
  options.port = first.port();
  AuditDaemon second(options);
  second.RegisterKg("kg", &kg);
  EXPECT_FALSE(second.Start().ok());

  OpenAuditMsg open;
  open.audit_id = 19;
  open.kg_name = "kg";
  AuditClient client(ClientOptions(first.port()));
  auto report = client.RunAudit(open);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
            RenderedJson("kg", "SRS", ReferenceRun(kg, 42)));
  first.Stop();
}

TEST(AuditDaemonTest, ConcurrentAcceptsNeverOvershootTheConnectionLimit) {
  // Four loops accept at once; the connection cap holds across them. Each
  // peer waits for a courtesy Busy before it says Hello: a refused peer
  // reads Busy and a close, an admitted one hears nothing until its Hello.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("accept_limit");
  auto options = DaemonOptions(dir);
  options.workers = 4;
  options.max_connections = 2;
  AuditDaemon daemon(options);
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  constexpr int kPeers = 8;
  struct Outcome {
    MessageType answer = MessageType::kError;
    bool closed = false;
  };
  std::vector<TestPeer> peers(kPeers);
  std::vector<Outcome> outcomes(kPeers);
  std::vector<std::thread> threads;
  for (int i = 0; i < kPeers; ++i) {
    threads.emplace_back([&, i] {
      TestPeer& peer = peers[i];
      if (!peer.Connect(daemon.port(), /*hello=*/false).ok()) return;
      auto frame = peer.Read();
      if (!frame.ok() &&
          frame.status().code() == StatusCode::kDeadlineExceeded) {
        if (!peer.Send(FrameOf(MessageType::kHello, EncodeHello,
                               HelloMsg{}))
                 .ok()) {
          return;
        }
        frame = peer.Read();
      }
      if (!frame.ok()) return;
      Outcome& outcome = outcomes[i];
      outcome.answer = static_cast<MessageType>(frame->type);
      if (outcome.answer == MessageType::kBusy) {
        outcome.closed = peer.ReadUntilClosed();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  int acks = 0;
  for (int i = 0; i < kPeers; ++i) {
    if (outcomes[i].answer == MessageType::kHelloAck) {
      ++acks;
      continue;
    }
    EXPECT_EQ(outcomes[i].answer, MessageType::kBusy) << "peer " << i;
    EXPECT_TRUE(outcomes[i].closed) << "peer " << i;
  }
  EXPECT_LE(acks, 2);
  EXPECT_GE(daemon.stats().busy_rejections.load(),
            static_cast<uint64_t>(kPeers - acks));
  daemon.Stop();
}

TEST(AuditDaemonTest, ClonedTwcsSamplersMatchFreshOnes) {
  // Opens clone their sampler from one prototype per (KG, design); a
  // different TWCS second-stage size rebuilds it. Every audit still lands
  // on the report of a local run with a freshly built sampler.
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("twcs_clones");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());

  struct Case {
    uint64_t seed;
    uint64_t twcs_m;
  };
  uint64_t audit_id = 20;
  for (const Case c : {Case{42, 3}, Case{7, 3}, Case{42, 5}, Case{7, 3}}) {
    OracleAnnotator oracle;
    TwcsSampler sampler(kg, TwcsConfig{.second_stage_size =
                                           static_cast<int>(c.twcs_m)});
    EvaluationSession local(sampler, oracle, EvaluationConfig{}, c.seed);
    auto reference = local.Run();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    OpenAuditMsg open;
    open.audit_id = audit_id++;
    open.kg_name = "kg";
    open.design = "twcs";
    open.twcs_m = c.twcs_m;
    open.seed = c.seed;
    AuditClient client(ClientOptions(daemon.port()));
    auto report = client.RunAudit(open);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(RenderedJson("kg", report->design_name, report->result),
              RenderedJson("kg", "TWCS", *reference))
        << "seed " << c.seed << " m " << c.twcs_m;
  }
  daemon.Stop();
}

TEST(AuditDaemonTest, DrainingDaemonAnswersBusyAtOpen) {
  const KnowledgeGraph kg = TestKg();
  const std::string dir = TempDir("drain_busy");
  AuditDaemon daemon(DaemonOptions(dir));
  daemon.RegisterKg("kg", &kg);
  ASSERT_TRUE(daemon.Start().ok());
  const uint16_t port = daemon.port();
  daemon.RequestDrain();
  daemon.Wait();

  // With the daemon gone, a client with a tight budget gives up with an
  // explicit transport error — never a hang.
  OpenAuditMsg open;
  open.audit_id = 1;
  open.kg_name = "kg";
  auto options = ClientOptions(port);
  options.max_reconnects = 1;
  options.backoff.max_attempts = 2;
  AuditClient client(options);
  auto report = client.RunAudit(open);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kgacc
