#ifndef KGACC_STORE_LOG_READER_H_
#define KGACC_STORE_LOG_READER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kgacc/util/status.h"

/// \file log_reader.h
/// Read-side access to a store log file for recovery and replay. `Open`
/// memory-maps the whole file read-only — replay-heavy resumes then walk
/// the page cache directly instead of copying the log through a buffered
/// read — and falls back to one streaming `pread` pass into an owned buffer
/// when mmap is unavailable (empty files, platforms without it, or the
/// `store.mmap` failpoint, which forces the fallback so its equivalence is
/// testable). Either way the caller sees one contiguous span of the file's
/// bytes; `mapped()` reports which path served it.
///
/// A forward scan bounds its resident set with `ReleaseBefore`: it drops
/// the mapped pages it has finished with, so replaying a log costs a window
/// of RSS rather than the whole file. A dropped page stays readable; it
/// faults back in from the file.
///
/// The reader holds no file descriptor: the caller keeps its own fd for the
/// subsequent truncate/append positioning. Truncating the tail while a
/// mapping is alive is safe here because recovery only reads bytes it has
/// already validated as living *before* the truncation point.

namespace kgacc {

/// One open log file's contents, mmap'd or buffered.
class LogReader {
 public:
  /// Reads the whole file behind `fd` (regular file, opened readable).
  /// Never fails just because mmap does — the streaming path is the
  /// fallback, not an error.
  static Result<LogReader> Open(int fd, const std::string& path);

  LogReader() = default;
  ~LogReader();
  LogReader(LogReader&& other) noexcept { MoveFrom(other); }
  LogReader& operator=(LogReader&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  /// The file's bytes, valid for the reader's lifetime.
  std::span<const uint8_t> data() const { return {data_, size_}; }

  /// True when the bytes are served by an mmap'd region (false = the
  /// streaming fallback buffered them).
  bool mapped() const { return mapped_; }

  /// Drops the mapped pages wholly before `offset` from the resident set
  /// (`madvise(MADV_DONTNEED)` on the page-aligned prefix). The bytes stay
  /// readable. A no-op on the streaming fallback, whose buffer is the data
  /// itself.
  void ReleaseBefore(size_t offset);

 private:
  void Release();
  void MoveFrom(LogReader& other) noexcept;

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<uint8_t> buffer_;  // Backing storage for the fallback path.
};

/// Fsyncs the directory containing `path`, making a just-created, renamed,
/// or truncated file's directory entry durable. Shared by WAL open (file
/// creation, torn-tail truncation) and compaction (the rename that installs
/// a rewritten log must itself survive power loss).
Status FsyncParentDir(const std::string& path);

}  // namespace kgacc

#endif  // KGACC_STORE_LOG_READER_H_
