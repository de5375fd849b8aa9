// Codec round trips: every primitive must survive write→read bit-exact,
// and every malformed input (truncation, overlong varints) must surface as
// a status, never as garbage or UB. The fuzz-style cases drive randomized
// typed record streams through a full round trip — the property the WAL
// and snapshot layers inherit.

#include "kgacc/util/codec.h"

#include <cmath>
#include <limits>
#include <vector>

#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(CodecTest, VarintBoundaryRoundTrips) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (uint64_t{1} << 32) - 1,
                             uint64_t{1} << 32,
                             uint64_t{1} << 63,
                             std::numeric_limits<uint64_t>::max()};
  ByteWriter w;
  for (const uint64_t v : values) w.PutVarint(v);
  ByteReader r(w.span());
  for (const uint64_t v : values) {
    const auto got = r.Varint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.empty());
}

TEST(CodecTest, ZigzagBoundaryRoundTrips) {
  const int64_t values[] = {0,
                            -1,
                            1,
                            -64,
                            63,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  ByteWriter w;
  for (const int64_t v : values) w.PutZigzag(v);
  ByteReader r(w.span());
  for (const int64_t v : values) {
    const auto got = r.Zigzag();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(CodecTest, SmallMagnitudesEncodeSmall) {
  ByteWriter w;
  w.PutVarint(5);
  EXPECT_EQ(w.size(), 1u);
  w.Clear();
  w.PutZigzag(-3);
  EXPECT_EQ(w.size(), 1u);
}

TEST(CodecTest, DoubleRoundTripsAreBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           6.02214076e23};
  ByteWriter w;
  for (const double v : values) w.PutDouble(v);
  ByteReader r(w.span());
  for (const double v : values) {
    const auto got = r.Double();
    ASSERT_TRUE(got.ok());
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &*got, sizeof(*got));
    EXPECT_EQ(got_bits, want_bits);  // Bitwise, so NaN and -0.0 count too.
  }
}

TEST(CodecTest, StringsAndLengthPrefixedBytes) {
  ByteWriter w;
  w.PutString("TWCS");
  w.PutString("");
  const std::vector<uint8_t> blob = {0x00, 0xff, 0x80, 0x7f};
  w.PutLengthPrefixed({blob.data(), blob.size()});
  ByteReader r(w.span());
  auto s1 = r.String();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, "TWCS");
  auto s2 = r.String();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, "");
  auto raw = r.LengthPrefixed();
  ASSERT_TRUE(raw.ok());
  ASSERT_EQ(raw->size(), blob.size());
  EXPECT_TRUE(std::equal(raw->begin(), raw->end(), blob.begin()));
  EXPECT_TRUE(r.empty());
}

TEST(CodecTest, FuzzRandomRecordStreamsRoundTrip) {
  // Randomized typed records: interleave every primitive in random order
  // and length, write, read back, compare. 64 records per round, many
  // rounds — the layout bugs this catches (mis-ordered fields, wrong
  // widths) are exactly the snapshot-layer failure modes.
  Rng rng(20250729);
  for (int round = 0; round < 200; ++round) {
    struct Record {
      int type;
      uint64_t u;
      int64_t z;
      double d;
      std::string s;
    };
    std::vector<Record> records;
    ByteWriter w;
    const int n = 1 + static_cast<int>(rng.UniformInt(64));
    for (int i = 0; i < n; ++i) {
      Record rec;
      rec.type = static_cast<int>(rng.UniformInt(5));
      switch (rec.type) {
        case 0:
          rec.u = rng.Next() >> rng.UniformInt(64);
          w.PutVarint(rec.u);
          break;
        case 1:
          rec.z = static_cast<int64_t>(rng.Next()) >>
                  static_cast<int>(rng.UniformInt(64));
          w.PutZigzag(rec.z);
          break;
        case 2:
          rec.d = rng.Normal() * std::exp(rng.Uniform(-300.0, 300.0));
          w.PutDouble(rec.d);
          break;
        case 3:
          rec.u = rng.Next();
          w.PutFixed64(rec.u);
          break;
        case 4: {
          const size_t len = rng.UniformInt(32);
          rec.s.resize(len);
          for (size_t c = 0; c < len; ++c) {
            rec.s[c] = static_cast<char>(rng.UniformInt(256));
          }
          w.PutString(rec.s);
          break;
        }
      }
      records.push_back(rec);
    }
    ByteReader r(w.span());
    for (const Record& rec : records) {
      switch (rec.type) {
        case 0: {
          auto got = r.Varint();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.u);
          break;
        }
        case 1: {
          auto got = r.Zigzag();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.z);
          break;
        }
        case 2: {
          auto got = r.Double();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.d);
          break;
        }
        case 3: {
          auto got = r.Fixed64();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.u);
          break;
        }
        case 4: {
          auto got = r.String();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.s);
          break;
        }
      }
    }
    EXPECT_TRUE(r.empty());
  }
}

TEST(CodecTest, TruncatedReadsFailCleanlyAtEveryPrefix) {
  ByteWriter w;
  w.PutVarint(1u << 20);
  w.PutDouble(3.14);
  w.PutString("abcdef");
  w.PutFixed32(42);
  // Every strict prefix must yield at least one error and never read past
  // the end; the full buffer must parse.
  for (size_t cut = 0; cut < w.size(); ++cut) {
    ByteReader r(w.span().subspan(0, cut));
    bool failed = false;
    failed |= !r.Varint().ok();
    failed |= !r.Double().ok();
    failed |= !r.String().ok();
    failed |= !r.Fixed32().ok();
    EXPECT_TRUE(failed) << "prefix of " << cut << " bytes parsed fully";
  }
  ByteReader full(w.span());
  EXPECT_TRUE(full.Varint().ok());
  EXPECT_TRUE(full.Double().ok());
  EXPECT_TRUE(full.String().ok());
  EXPECT_TRUE(full.Fixed32().ok());
  EXPECT_TRUE(full.empty());
}

TEST(CodecTest, OverlongVarintRejected) {
  // 11 continuation bytes: no canonical uint64 encodes this long.
  const std::vector<uint8_t> overlong(11, 0x80);
  ByteReader r({overlong.data(), overlong.size()});
  EXPECT_FALSE(r.Varint().ok());
  // 10 bytes whose final group carries bits beyond 2^64.
  std::vector<uint8_t> overflow(10, 0xff);
  overflow[9] = 0x7f;
  ByteReader r2({overflow.data(), overflow.size()});
  EXPECT_FALSE(r2.Varint().ok());
}

TEST(CodecTest, LengthPrefixLargerThanBufferRejected) {
  ByteWriter w;
  w.PutVarint(1000);  // Claims 1000 bytes; none follow.
  ByteReader r(w.span());
  EXPECT_FALSE(r.LengthPrefixed().ok());
}

TEST(CodecTest, Crc32cKnownVectorsAndSensitivity) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes.
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // "123456789" — the classic check value.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xe3069283u);
  // Every single-bit flip must change the checksum.
  std::vector<uint8_t> buf(16, 0xa5);
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= uint8_t(1) << bit;
      EXPECT_NE(Crc32c(buf.data(), buf.size()), base);
      buf[byte] ^= uint8_t(1) << bit;
    }
  }
  // Chaining across fragments equals one pass.
  EXPECT_EQ(Crc32c(buf.data() + 4, buf.size() - 4,
                   Crc32c(buf.data(), 4)),
            base);
}

/// The textbook byte-at-a-time CRC32C, straight from the polynomial: the
/// reference the table-driven implementation must agree with.
uint32_t BitwiseCrc32c(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(CodecTest, Crc32cMatchesTheBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length up to 4 KiB from every start offset modulo 8, so each
  // split of the input into 8-byte slices and a head or tail is covered.
  std::vector<uint8_t> buf(4096 + 8);
  Rng rng(5);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.UniformInt(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len + offset <= buf.size() && len <= 4096; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32c(p, len), BitwiseCrc32c(p, len, 0))
          << "offset " << offset << " length " << len;
    }
  }
  // Chained seeds: folding fragments of every size reproduces one pass and
  // the reference's own chain.
  for (size_t split = 0; split <= 64; ++split) {
    const uint8_t* p = buf.data() + 3;
    const size_t len = 200;
    const uint32_t head = Crc32c(p, split);
    ASSERT_EQ(head, BitwiseCrc32c(p, split, 0));
    ASSERT_EQ(Crc32c(p + split, len - split, head), Crc32c(p, len));
    ASSERT_EQ(Crc32c(p + split, len - split, head),
              BitwiseCrc32c(p + split, len - split, head));
  }
  for (uint32_t seed : {0u, 1u, 0xffffffffu, 0x8a9136aau, 0xdeadbeefu}) {
    for (size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
      ASSERT_EQ(Crc32c(buf.data() + 1, len, seed),
                BitwiseCrc32c(buf.data() + 1, len, seed))
          << "seed " << seed << " length " << len;
    }
  }
}

}  // namespace
}  // namespace kgacc
