#ifndef KGACC_NET_SOCKET_H_
#define KGACC_NET_SOCKET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kgacc/util/status.h"

/// \file socket.h
/// Thin POSIX TCP wrappers with Status-based error reporting — the only
/// file in the net layer that touches socket syscalls directly, so the
/// server and client stay readable and every errno has one translation
/// point. All helpers are loopback/IPv4 (the daemon is an intra-host
/// sidecar, not an internet service).

namespace kgacc {

/// An owned file descriptor: closes on destruction, moves like unique_ptr.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor (idempotent).
  void Reset();

 private:
  int fd_ = -1;
};

/// Binds and listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral
/// port; read it back with `LocalPort`) with `count` listeners in one
/// SO_REUSEPORT group: the kernel spreads incoming connections over them,
/// so each event loop can accept its own. The listeners are nonblocking and
/// SO_REUSEADDR so a drained daemon restarts on its old port immediately.
/// A port something else listens on fails here, as a lone listener's bind
/// would, even when it is another group the same user could join.
Result<std::vector<OwnedFd>> ListenTcpGroup(uint16_t port, int count,
                                            int backlog = 64);

/// The locally bound port of a socket (getsockname).
Result<uint16_t> LocalPort(int fd);

/// Blocking connect to 127.0.0.1:`port`, TCP_NODELAY enabled (the protocol
/// is small request/reply frames; Nagle would serialize them).
Result<OwnedFd> ConnectTcp(uint16_t port);

/// Accepts one pending connection from a nonblocking `ListenTcpGroup`
/// listener: the new fd (nonblocking, and TCP_NODELAY like the listener),
/// or an invalid OwnedFd when no connection is pending (EAGAIN), or an
/// error status.
Result<OwnedFd> AcceptTcp(int listener_fd);

/// Switches a descriptor to nonblocking mode.
Status SetNonBlocking(int fd);

/// Sets SO_RCVTIMEO so blocking reads fail with kDeadlineExceeded instead
/// of hanging on a dead peer (client-side liveness).
Status SetRecvTimeoutMs(int fd, uint64_t timeout_ms);

/// Sends the whole span on a *blocking* socket (EINTR-retrying loop,
/// MSG_NOSIGNAL so a dead peer surfaces as a status, not SIGPIPE).
Status SendAll(int fd, std::span<const uint8_t> bytes);

/// One recv on a blocking socket. Returns the bytes read; 0 means the peer
/// closed cleanly. A receive timeout maps to kDeadlineExceeded.
Result<size_t> RecvSome(int fd, uint8_t* buf, size_t len);

}  // namespace kgacc

#endif  // KGACC_NET_SOCKET_H_
