#include "kgacc/net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace kgacc {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// A SO_REUSEADDR socket bound to 127.0.0.1:`port`, optionally also
/// SO_REUSEPORT.
Result<OwnedFd> BoundSocket(uint16_t port, bool reuse_port) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  if (setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  if (reuse_port && setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                               sizeof(one)) != 0) {
    return Errno("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr = LoopbackAddr(port);
  if (bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  return fd;
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::vector<OwnedFd>> ListenTcpGroup(uint16_t port, int count,
                                            int backlog) {
  // The probe is a plain socket: it cannot bind next to a listener, not
  // even one in a reuseport group that a second daemon of this user would
  // silently join. It also fixes an ephemeral port for the group, and holds
  // it while the group binds (bound sockets that all set SO_REUSEADDR and
  // do not listen yet do not conflict).
  KGACC_ASSIGN_OR_RETURN(OwnedFd probe, BoundSocket(port, false));
  KGACC_ASSIGN_OR_RETURN(const uint16_t bound, LocalPort(probe.get()));
  std::vector<OwnedFd> group;
  for (int i = 0; i < count; ++i) {
    KGACC_ASSIGN_OR_RETURN(OwnedFd fd, BoundSocket(bound, true));
    group.push_back(std::move(fd));
  }
  // A listening member would conflict with the probe.
  probe.Reset();
  for (const OwnedFd& fd : group) {
    // Accepted sockets inherit TCP_NODELAY from their listener.
    KGACC_RETURN_IF_ERROR(SetNoDelay(fd.get()));
    if (listen(fd.get(), backlog) != 0) return Errno("listen");
    KGACC_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  }
  return group;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<OwnedFd> ConnectTcp(uint16_t port) {
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  sockaddr_in addr = LoopbackAddr(port);
  int rc;
  do {
    rc = connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return Errno("connect(127.0.0.1:" + std::to_string(port) + ")");
  }
  KGACC_RETURN_IF_ERROR(SetNoDelay(fd.get()));
  return fd;
}

Result<OwnedFd> AcceptTcp(int listener_fd) {
  int raw;
  do {
    raw = accept4(listener_fd, nullptr, nullptr, SOCK_NONBLOCK);
  } while (raw < 0 && errno == EINTR);
  if (raw < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return OwnedFd();
    return Errno("accept");
  }
  return OwnedFd(raw);
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

Status SetRecvTimeoutMs(int fd, uint64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

Status SendAll(int fd, std::span<const uint8_t> bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> RecvSome(int fd, uint8_t* buf, size_t len) {
  ssize_t n;
  do {
    n = recv(fd, buf, len, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("recv timed out (peer unresponsive)");
    }
    return Errno("recv");
  }
  return static_cast<size_t>(n);
}

}  // namespace kgacc
