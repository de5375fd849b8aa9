#include "kgacc/net/frame.h"

#include <string>

#include "kgacc/util/codec.h"

namespace kgacc {

void AppendNetFrame(uint8_t type, std::span<const uint8_t> payload,
                    std::vector<uint8_t>* out) {
  // Type byte and varint length (at most ten bytes) go straight onto `out`
  // from the stack; the CRC chains over them and then the payload.
  uint8_t header[11];
  size_t header_size = 0;
  header[header_size++] = type;
  uint64_t len = payload.size();
  while (len >= 0x80) {
    header[header_size++] = static_cast<uint8_t>(len) | 0x80;
    len >>= 7;
  }
  header[header_size++] = static_cast<uint8_t>(len);
  const uint32_t crc = Crc32c(payload.data(), payload.size(),
                              Crc32c(header, header_size));
  out->insert(out->end(), header, header + header_size);
  out->insert(out->end(), payload.begin(), payload.end());
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
}

std::vector<uint8_t> EncodeNetFrame(uint8_t type,
                                    std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  AppendNetFrame(type, payload, &out);
  return out;
}

void FrameAssembler::Feed(std::span<const uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameAssembler::Compact() {
  if (consumed_ == 0) return;
  // Compact when the dead prefix dominates: each byte is moved O(1) times
  // amortized, and steady-state small frames stay in a small buffer.
  if (consumed_ >= 4096 || consumed_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

Result<bool> FrameAssembler::Next(NetFrame* frame) {
  if (!stream_error_.ok()) return stream_error_;
  const uint8_t* base = buf_.data() + consumed_;
  const size_t avail = buf_.size() - consumed_;
  if (avail < 2) return false;  // type byte + at least one length byte

  // Parse the varint length prefix by hand: the reader cannot distinguish
  // "truncated because the peer is mid-send" (wait) from "structurally
  // impossible" (fail), and that distinction is the whole read loop.
  uint64_t payload_len = 0;
  size_t len_bytes = 0;
  for (int shift = 0;; shift += 7, ++len_bytes) {
    if (1 + len_bytes >= avail) return false;  // prefix still in flight
    const uint8_t byte = base[1 + len_bytes];
    if (shift >= 63 && (byte & 0x7f) > 1) {
      stream_error_ = Status::OutOfRange(
          "net: frame length prefix overflows 64 bits");
      return stream_error_;
    }
    payload_len |= uint64_t(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      ++len_bytes;
      break;
    }
    if (len_bytes + 1 >= 10) {
      stream_error_ = Status::OutOfRange(
          "net: frame length prefix longer than 10 bytes");
      return stream_error_;
    }
  }
  if (payload_len > max_frame_bytes_) {
    stream_error_ = Status::OutOfRange(
        "net: frame payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(max_frame_bytes_) +
        "-byte limit");
    return stream_error_;
  }
  const size_t framed = 1 + len_bytes + size_t(payload_len);
  if (avail < framed + 4) return false;  // payload or CRC still in flight

  uint32_t expect = 0;
  for (int i = 0; i < 4; ++i) expect |= uint32_t(base[framed + i]) << (8 * i);
  const uint32_t actual = Crc32c(base, framed);
  if (actual != expect) {
    stream_error_ = Status::IoError(
        "net: frame checksum mismatch (torn or bit-flipped frame)");
    return stream_error_;
  }

  frame->type = base[0];
  frame->payload.assign(base + 1 + len_bytes, base + framed);
  consumed_ += framed + 4;
  Compact();
  return true;
}

}  // namespace kgacc
