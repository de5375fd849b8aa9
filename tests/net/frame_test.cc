#include "kgacc/net/frame.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "kgacc/net/protocol.h"
#include "kgacc/util/alloc_counter.h"
#include "kgacc/util/codec.h"

#include <gtest/gtest.h>

// Wire-framing boundary and fuzz coverage, mirroring wal_test's torn-tail
// and bit-flip cases at the protocol layer. The contract under test:
// malformed input fails the *connection* (a sticky descriptive status from
// Next), and never crashes, hangs, or silently yields a wrong frame.

namespace kgacc {
namespace {

/// A message's payload in a fresh vector.
template <typename EncodeFn, typename Msg>
std::vector<uint8_t> PayloadOf(EncodeFn encode, const Msg& m) {
  ByteWriter w;
  encode(m, &w);
  return w.bytes();
}

std::vector<uint8_t> Payload(size_t n, uint8_t seed = 7) {
  std::vector<uint8_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(seed + i * 31);
  return p;
}

TEST(NetFrameTest, RoundTripsSingleFrame) {
  const std::vector<uint8_t> payload = Payload(100);
  const std::vector<uint8_t> wire = EncodeNetFrame(9, payload);
  FrameAssembler assembler;
  assembler.Feed(wire);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 9);
  EXPECT_EQ(frame.payload, payload);
  // Nothing trailing.
  have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  EXPECT_FALSE(*have);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(NetFrameTest, RoundTripsEmptyPayload) {
  const std::vector<uint8_t> wire = EncodeNetFrame(3, {});
  FrameAssembler assembler;
  assembler.Feed(wire);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 3);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetFrameTest, AppendedFrameMatchesTheCodecLayout) {
  // [type][varint length][payload][crc32c over all three], appended behind
  // whatever `out` already holds; lengths cover one- to three-byte varints.
  for (const size_t n : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                         size_t{300}, size_t{20000}}) {
    const std::vector<uint8_t> payload = Payload(n, static_cast<uint8_t>(n));
    ByteWriter reference;
    reference.PutU8(6);
    reference.PutVarint(n);
    reference.PutBytes(payload.data(), payload.size());
    reference.PutFixed32(Crc32c(reference.bytes().data(), reference.size()));
    std::vector<uint8_t> wire = {0xAB, 0xCD};
    AppendNetFrame(6, payload, &wire);
    ASSERT_EQ(wire.size(), 2 + reference.size()) << n;
    EXPECT_EQ(wire[0], 0xAB);
    EXPECT_EQ(wire[1], 0xCD);
    EXPECT_TRUE(std::equal(reference.bytes().begin(), reference.bytes().end(),
                           wire.begin() + 2))
        << n;
  }
}

TEST(NetFrameTest, AppendingFramesAllocatesNothingWhenTheOutboxHasRoom) {
  // A frame is written straight into the outbox: once the outbox has the
  // capacity, appending costs no heap allocation.
  const std::vector<uint8_t> payload = Payload(300);
  std::vector<uint8_t> outbox;
  outbox.reserve(4096);
  const uint64_t before = alloc_counter::Current();
  for (uint8_t t = 1; t <= 8; ++t) AppendNetFrame(t, payload, &outbox);
  EXPECT_EQ(alloc_counter::Current() - before, 0u);
  EXPECT_EQ(outbox.size(), 8 * (1 + 2 + payload.size() + 4));
}

TEST(NetFrameTest, AppendingReplyFramesAllocatesNothingAfterWarmUp) {
  // The daemon's reply path: `AppendFrameOf` encodes a payload into the
  // thread's reused scratch writer and appends the frame to the outbox.
  // Once one report frame has sized the scratch, no reply frame allocates,
  // and the bytes are those of freshly encoded payloads.
  IntervalUpdateMsg update;
  update.audit_id = 1000042;
  update.annotated_triples = 120;
  update.mu = 0.9;
  update.lower = 0.85;
  update.upper = 0.94;
  update.moe = 0.045;
  AuditReportMsg report;
  report.audit_id = 1000042;
  report.design_name = "TWCS";
  report.dataset_name = "demo";
  report.result.mu = 0.9;
  report.result.iterations = 15;
  for (uint64_t n = 10; n <= 150; n += 10) {
    report.result.trace.push_back(TracePoint{n, 1.0 / double(n), 0.9});
  }
  std::vector<uint8_t> outbox;
  outbox.reserve(1 << 16);
  AppendFrameOf(MessageType::kAuditReport, EncodeAuditReport, report,
                &outbox);
  outbox.clear();

  const uint64_t before = alloc_counter::Current();
  for (uint64_t step = 1; step <= 15; ++step) {
    update.step = step;
    AppendFrameOf(MessageType::kIntervalUpdate, EncodeIntervalUpdate, update,
                  &outbox);
  }
  AppendFrameOf(MessageType::kAuditReport, EncodeAuditReport, report,
                &outbox);
  EXPECT_EQ(alloc_counter::Current() - before, 0u);

  std::vector<uint8_t> expected;
  for (uint64_t step = 1; step <= 15; ++step) {
    update.step = step;
    AppendNetFrame(static_cast<uint8_t>(MessageType::kIntervalUpdate),
                   PayloadOf(EncodeIntervalUpdate, update), &expected);
  }
  AppendNetFrame(static_cast<uint8_t>(MessageType::kAuditReport),
                 PayloadOf(EncodeAuditReport, report), &expected);
  EXPECT_EQ(outbox, expected);
}

TEST(NetFrameTest, ManyFramesInOneFeed) {
  std::vector<uint8_t> wire;
  for (uint8_t t = 1; t <= 40; ++t) {
    AppendNetFrame(t, Payload(t * 3, t), &wire);
  }
  FrameAssembler assembler;
  assembler.Feed(wire);
  for (uint8_t t = 1; t <= 40; ++t) {
    NetFrame frame;
    auto have = assembler.Next(&frame);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    ASSERT_TRUE(*have) << "frame " << int(t);
    EXPECT_EQ(frame.type, t);
    EXPECT_EQ(frame.payload, Payload(t * 3, t));
  }
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  EXPECT_FALSE(*have);
}

TEST(NetFrameTest, ByteByByteDeliveryAssemblesEveryFrame) {
  // Worst-case interleaving: the socket hands over one byte per read. The
  // assembler must report "need more" at every prefix and produce each
  // frame exactly at its final byte.
  std::vector<uint8_t> wire;
  for (uint8_t t = 1; t <= 5; ++t) AppendNetFrame(t, Payload(64, t), &wire);
  FrameAssembler assembler;
  int frames = 0;
  for (const uint8_t byte : wire) {
    assembler.Feed({&byte, 1});
    NetFrame frame;
    auto have = assembler.Next(&frame);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    if (*have) {
      ++frames;
      EXPECT_EQ(frame.type, frames);
      EXPECT_EQ(frame.payload, Payload(64, static_cast<uint8_t>(frames)));
    }
  }
  EXPECT_EQ(frames, 5);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(NetFrameTest, RandomChunkingAssemblesEveryFrame) {
  std::vector<uint8_t> wire;
  for (int t = 1; t <= 30; ++t) {
    AppendNetFrame(static_cast<uint8_t>(t),
                   Payload(static_cast<size_t>(t) * 17 % 300,
                           static_cast<uint8_t>(t)),
                   &wire);
  }
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    FrameAssembler assembler;
    size_t off = 0;
    int frames = 0;
    while (off < wire.size()) {
      const size_t n = std::min<size_t>(
          wire.size() - off, 1 + rng() % 97);
      assembler.Feed({wire.data() + off, n});
      off += n;
      while (true) {
        NetFrame frame;
        auto have = assembler.Next(&frame);
        ASSERT_TRUE(have.ok()) << have.status().ToString();
        if (!*have) break;
        ++frames;
      }
    }
    EXPECT_EQ(frames, 30) << "trial " << trial;
    EXPECT_EQ(assembler.buffered_bytes(), 0u);
  }
}

TEST(NetFrameTest, TruncatedPrefixIsNeedMoreNotError) {
  // Every strict prefix of a valid frame is "in flight", never corrupt:
  // the assembler cannot tell a slow sender from a torn tail until more
  // bytes arrive, so it must keep answering ok/false.
  const std::vector<uint8_t> wire = EncodeNetFrame(5, Payload(200));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameAssembler assembler;
    assembler.Feed({wire.data(), cut});
    NetFrame frame;
    auto have = assembler.Next(&frame);
    ASSERT_TRUE(have.ok()) << "cut at " << cut << ": "
                           << have.status().ToString();
    EXPECT_FALSE(*have) << "cut at " << cut;
    EXPECT_TRUE(assembler.stream_error().ok());
  }
}

TEST(NetFrameTest, EveryeSingleBitFlipIsDetected) {
  // The WAL bit-flip case at the wire: flip each bit of an encoded frame
  // and demand either a CRC/structure error or (for length-prefix flips
  // that merely lengthen the frame) a "need more bytes" stall — never a
  // silently delivered wrong frame.
  const std::vector<uint8_t> payload = Payload(48);
  const std::vector<uint8_t> wire = EncodeNetFrame(7, payload);
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = wire;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      FrameAssembler assembler;
      assembler.Feed(corrupt);
      NetFrame frame;
      auto have = assembler.Next(&frame);
      if (have.ok() && *have) {
        ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit
                      << " delivered a frame undetected";
      }
      if (!have.ok()) {
        // Sticky: the stream is dead for good.
        EXPECT_FALSE(assembler.stream_error().ok());
        auto again = assembler.Next(&frame);
        EXPECT_FALSE(again.ok());
        EXPECT_FALSE(have.status().message().empty());
      }
    }
  }
}

TEST(NetFrameTest, CrcMismatchIsStickyEvenAfterMoreValidFrames) {
  // Once the stream is corrupt there is no trustworthy frame boundary;
  // feeding perfectly valid frames afterwards must not resurrect it.
  std::vector<uint8_t> wire = EncodeNetFrame(2, Payload(32));
  wire[wire.size() - 1] ^= 0xff;  // smash the CRC
  FrameAssembler assembler;
  assembler.Feed(wire);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_FALSE(have.ok());
  EXPECT_EQ(have.status().code(), StatusCode::kIoError);
  assembler.Feed(EncodeNetFrame(2, Payload(32)));
  auto again = assembler.Next(&frame);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), have.status().code());
}

TEST(NetFrameTest, OverlongFrameIsRejectedBeforeBuffering) {
  // A length prefix beyond the cap must fail immediately — the assembler
  // may not wait for (or buffer) a payload that large.
  FrameAssembler assembler(/*max_frame_bytes=*/1024);
  std::vector<uint8_t> wire;
  AppendNetFrame(1, Payload(2048), &wire);
  // Feed just the header: type + varint length. The cap check needs no
  // payload bytes.
  assembler.Feed({wire.data(), 4});
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_FALSE(have.ok());
  EXPECT_EQ(have.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(have.status().message().empty());
}

TEST(NetFrameTest, AtCapFrameStillRoundTrips) {
  FrameAssembler assembler(/*max_frame_bytes=*/1024);
  const std::vector<uint8_t> payload = Payload(1024);
  assembler.Feed(EncodeNetFrame(4, payload));
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.payload, payload);
}

TEST(NetFrameTest, UnterminatedVarintPrefixIsRejected) {
  // Ten continuation bytes with the high bit set: no valid u64 varint is
  // that long, so the stream is structurally corrupt, not merely slow.
  FrameAssembler assembler;
  std::vector<uint8_t> junk(1, 1);  // type byte
  junk.insert(junk.end(), 10, 0x80);
  assembler.Feed(junk);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_FALSE(have.ok());
  EXPECT_FALSE(have.status().message().empty());
}

TEST(NetFrameTest, RandomGarbageNeverCrashesOrHangs) {
  // Pure fuzz: random bytes in random chunk sizes. Any outcome is legal
  // except a crash, an infinite "need more" on a structurally dead stream
  // after the cap, or a delivered frame claiming a huge payload.
  std::mt19937 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    FrameAssembler assembler(4096);
    bool dead = false;
    for (int chunk = 0; chunk < 64 && !dead; ++chunk) {
      std::vector<uint8_t> bytes(1 + rng() % 200);
      for (auto& b : bytes) b = static_cast<uint8_t>(rng());
      assembler.Feed(bytes);
      while (true) {
        NetFrame frame;
        auto have = assembler.Next(&frame);
        if (!have.ok()) {
          dead = true;
          break;
        }
        if (!*have) break;
        EXPECT_LE(frame.payload.size(), 4096u);
      }
    }
    // Either the stream died with a sticky error, or everything the fuzz
    // produced happened to parse — both fine; memory stayed bounded.
    EXPECT_LE(assembler.buffered_bytes(), 4096u + 16u);
  }
}

TEST(NetFrameTest, InterleavedPartialFramesAcrossFeeds) {
  // A frame boundary split inside the CRC while the next frame's bytes
  // ride in the same Feed call — the assembler must keep both straight.
  const std::vector<uint8_t> a = EncodeNetFrame(1, Payload(50, 1));
  const std::vector<uint8_t> b = EncodeNetFrame(2, Payload(60, 2));
  std::vector<uint8_t> wire = a;
  wire.insert(wire.end(), b.begin(), b.end());
  const size_t split = a.size() - 2;  // mid-CRC of frame a
  FrameAssembler assembler;
  assembler.Feed({wire.data(), split});
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  EXPECT_FALSE(*have);
  assembler.Feed({wire.data() + split, wire.size() - split});
  have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 1);
  have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 2);
}

TEST(NetFrameTest, ReportFrameWithCraftedTraceCountIsRejected) {
  // A well-formed AuditReport frame under 100 bytes whose trace count
  // claims 2^40 points must fail to decode, not make the client try to
  // reserve them.
  AuditReportMsg report;
  report.store_hits = 1;
  report.oracle_calls = 2;
  report.checkpoints_written = 3;
  report.store_retries = 4;
  report.degraded = true;
  report.degradation_note = "x";
  const std::vector<uint8_t> valid = PayloadOf(EncodeAuditReport, report);
  // The empty trace's zero count precedes the four store counters, the
  // degraded flag and the one-byte note with its length.
  const size_t count_at = valid.size() - 8;
  ASSERT_EQ(valid[count_at], 0);
  ByteWriter crafted;
  crafted.PutBytes(valid.data(), count_at);
  crafted.PutVarint(uint64_t{1} << 40);
  crafted.PutBytes(valid.data() + count_at + 1, valid.size() - count_at - 1);

  FrameAssembler assembler;
  assembler.Feed(EncodeNetFrame(
      static_cast<uint8_t>(MessageType::kAuditReport), crafted.bytes()));
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(*have);
  EXPECT_LT(frame.payload.size(), 100u);
  const auto decoded = DecodeAuditReport(frame.payload);
  EXPECT_FALSE(decoded.ok());
}

TEST(NetFrameTest, ErrorFrameWithOutOfRangeCodeIsRejected) {
  // An Error frame must carry a failure: code 0 would decode into an OK
  // status that the client then returns as a failed result, and a code
  // past the last StatusCode names nothing.
  ErrorMsg error;
  error.audit_id = 5;
  error.fatal_to_session = true;
  error.message = "crafted";
  for (const uint8_t code :
       {uint8_t{0}, uint8_t(uint8_t(StatusCode::kQuotaExceeded) + 1),
        uint8_t{255}}) {
    error.code = code;
    const auto decoded = DecodeError(PayloadOf(EncodeError, error));
    ASSERT_FALSE(decoded.ok()) << int(code);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  for (const StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kQuotaExceeded}) {
    error.code = static_cast<uint8_t>(code);
    const auto decoded = DecodeError(PayloadOf(EncodeError, error));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->ToStatus().code(), code);
  }
}

TEST(NetFrameTest, FramesWithCraftedStopReasonAreRejected) {
  // A stop reason byte past kPopulationExhausted names no enumerator; both
  // the report and the per-step update must reject it.
  const uint8_t crafted = uint8_t(StopReason::kPopulationExhausted) + 1;
  AuditReportMsg report;
  report.result.stop_reason = static_cast<StopReason>(crafted);
  EXPECT_FALSE(DecodeAuditReport(PayloadOf(EncodeAuditReport, report)).ok());
  report.result.stop_reason = StopReason::kPopulationExhausted;
  const auto valid_report =
      DecodeAuditReport(PayloadOf(EncodeAuditReport, report));
  ASSERT_TRUE(valid_report.ok()) << valid_report.status().ToString();
  EXPECT_EQ(valid_report->result.stop_reason,
            StopReason::kPopulationExhausted);

  IntervalUpdateMsg update;
  update.done = true;
  update.stop_reason = crafted;
  EXPECT_FALSE(
      DecodeIntervalUpdate(PayloadOf(EncodeIntervalUpdate, update)).ok());
  update.stop_reason = uint8_t(StopReason::kPopulationExhausted);
  EXPECT_TRUE(
      DecodeIntervalUpdate(PayloadOf(EncodeIntervalUpdate, update)).ok());
}

}  // namespace
}  // namespace kgacc
