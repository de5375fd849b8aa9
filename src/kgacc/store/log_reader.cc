#include "kgacc/store/log_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "kgacc/util/failpoint.h"

namespace kgacc {

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

Result<LogReader> LogReader::Open(int fd, const std::string& path) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return IoError("cannot stat log", path);
  const size_t size = static_cast<size_t>(st.st_size);

  LogReader reader;
  if (size == 0) return reader;  // Nothing to map or read.

  // Preferred path: map the file read-only. MAP_PRIVATE suffices — recovery
  // never writes through the mapping, and the later tail truncation only
  // shrinks past bytes the scan has already rejected.
  if (!FailpointHit("store.mmap")) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      reader.data_ = static_cast<const uint8_t*>(addr);
      reader.size_ = size;
      reader.mapped_ = true;
      return reader;
    }
  }

  // Fallback: one streaming pread pass into an owned buffer. Identical
  // bytes, identical recovery decisions — just a copy instead of a map.
  reader.buffer_.resize(size);
  size_t read_so_far = 0;
  while (read_so_far < reader.buffer_.size()) {
    const ssize_t n =
        ::pread(fd, reader.buffer_.data() + read_so_far,
                reader.buffer_.size() - read_so_far,
                static_cast<off_t>(read_so_far));
    if (n < 0) return IoError("cannot read log", path);
    if (n == 0) break;  // Raced truncation; treat the shortfall as tail.
    read_so_far += static_cast<size_t>(n);
  }
  reader.buffer_.resize(read_so_far);
  reader.data_ = reader.buffer_.data();
  reader.size_ = reader.buffer_.size();
  reader.mapped_ = false;
  return reader;
}

LogReader::~LogReader() { Release(); }

void LogReader::ReleaseBefore(size_t offset) {
  if (!mapped_) return;
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t end = std::min(offset, size_) / page * page;
  // Advisory: a failed madvise only leaves the pages resident.
  if (end > 0) ::madvise(const_cast<uint8_t*>(data_), end, MADV_DONTNEED);
}

void LogReader::Release() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  buffer_.clear();
}

void LogReader::MoveFrom(LogReader& other) noexcept {
  buffer_ = std::move(other.buffer_);
  mapped_ = other.mapped_;
  size_ = other.size_;
  // The fallback buffer's address changes when the vector moves.
  data_ = mapped_ ? other.data_ : (size_ == 0 ? nullptr : buffer_.data());
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return IoError("cannot open log parent dir", dir);
  if (::fsync(dfd) != 0) {
    const Status status = IoError("cannot fsync log parent dir", dir);
    ::close(dfd);
    return status;
  }
  ::close(dfd);
  return Status::OK();
}

}  // namespace kgacc
