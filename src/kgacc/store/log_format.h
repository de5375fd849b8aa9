#ifndef KGACC_STORE_LOG_FORMAT_H_
#define KGACC_STORE_LOG_FORMAT_H_

#include <cstdint>
#include <span>

#include "kgacc/util/codec.h"

/// \file log_format.h
/// The one definition of the store's on-disk frame format, shared by the
/// live appender (`WriteAheadLog`), the compaction rewriter (which streams
/// a replacement log through a bounded buffer outside the WAL object), and
/// the offline verifier (`kgacc_store verify`). A log file is:
///
///   [8-byte magic "kgacWAL1"]
///   frame*   where frame = [type u8][payload_len varint][payload][crc32c]
///
/// and the CRC covers type + length + payload. Keeping the encoder here —
/// instead of private to wal.cc — is what lets compaction write a
/// byte-compatible file that `WriteAheadLog::Open` replays with no special
/// cases.

namespace kgacc::walfmt {

/// File magic: identifies the format and its version in the first 8 bytes.
inline constexpr char kMagic[8] = {'k', 'g', 'a', 'c', 'W', 'A', 'L', '1'};
inline constexpr size_t kMagicSize = sizeof(kMagic);

/// Upper bound on one frame's payload. Snapshots of audit sessions are
/// kilobytes; anything near this limit in a length prefix is corruption,
/// not data, and must not drive a giant allocation during recovery.
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 30;

/// Frame types owned by the annotation store. The trailer frame is written
/// only by compaction, as the last frame of a rewritten log: it seals the
/// live set with counts, the carried next_seq, and a chained CRC over every
/// preceding payload, so replay can prove the rewrite is complete and
/// untampered (frames appended *after* it are ordinary post-compaction
/// traffic).
inline constexpr uint8_t kAnnotationFrame = 1;
inline constexpr uint8_t kCheckpointFrame = 2;
inline constexpr uint8_t kCompactionTrailerFrame = 3;
/// Tenant quota-ledger frame: `string(tenant_id), varint(oracle_spent),
/// varint(store_bytes)`. Totals are *cumulative*, so replay is latest-wins
/// per tenant and a frame lost to a torn tail is healed by the next one.
inline constexpr uint8_t kTenantLedgerFrame = 4;

/// Encoded size of a varint, needed for exact on-disk byte accounting
/// (space-amplification tracking) without re-encoding.
inline constexpr uint64_t VarintLength(uint64_t v) {
  uint64_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Exact bytes one frame with `payload_size` payload occupies on disk:
/// type byte + length varint + payload + fixed32 CRC.
inline constexpr uint64_t FrameBytesOnDisk(uint64_t payload_size) {
  return 1 + VarintLength(payload_size) + payload_size + 4;
}

/// Appends one complete frame (type, length, payload, CRC) to `out` —
/// the same bytes `WriteAheadLog::Append` writes.
inline void AppendFrame(ByteWriter* out, uint8_t type,
                        std::span<const uint8_t> payload) {
  const size_t frame_start = out->size();
  out->PutU8(type);
  out->PutVarint(payload.size());
  out->PutBytes(payload.data(), payload.size());
  out->PutFixed32(
      Crc32c(out->bytes().data() + frame_start, out->size() - frame_start));
}

}  // namespace kgacc::walfmt

#endif  // KGACC_STORE_LOG_FORMAT_H_
