#include "util/socket.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/failpoint.h"

namespace pincer {

namespace {

Status Errno(std::string_view what) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): glibc strerror uses a
  // thread-local buffer and the text is copied into the Status immediately.
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    // EINTR on close is not retried: POSIX leaves the descriptor state
    // unspecified and Linux guarantees it is closed either way.
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<UniqueFd> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        "unix socket path must be 1.." +
        std::to_string(sizeof(addr.sun_path) - 1) + " bytes, got \"" + path +
        "\"");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_UNIX)");
  // The daemon owns its socket path: replace a stale file from a previous
  // (crashed) instance rather than failing with EADDRINUSE.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind(" + path + ")");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen(" + path + ")");
  return fd;
}

StatusOr<UniqueFd> ListenTcp(uint16_t port, int backlog) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_INET)");
  const int one = 1;
  // Fast restarts: the previous daemon's TIME_WAIT must not block the port.
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind(127.0.0.1:" + std::to_string(port) + ")");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");
  return fd;
}

StatusOr<uint16_t> BoundTcpPort(const UniqueFd& listener) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

StatusOr<UniqueFd> AcceptConnection(const UniqueFd& listener) {
  // One evaluation per call, not per retry: an armed `once` trigger fails
  // exactly one accept, which must look like any other transient failure.
  PINCER_FAILPOINT("socket.accept");
  for (;;) {
    const int fd = ::accept(listener.get(), nullptr, nullptr);
    if (fd >= 0) return UniqueFd(fd);
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

StatusOr<UniqueFd> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: \"" + path +
                                   "\"");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect(" + path + ")");
  }
  return fd;
}

StatusOr<UniqueFd> ConnectTcp(uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno("connect(127.0.0.1:" + std::to_string(port) + ")");
  }
  return fd;
}

Status SetRecvTimeout(const UniqueFd& fd, double timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    // At least 1ms: a zero timeval means "no timeout" to SO_RCVTIMEO.
    const long micros =
        std::max<long>(static_cast<long>(std::ceil(timeout_ms * 1000.0)),
                       1000);
    tv.tv_sec = micros / 1000000;
    tv.tv_usec = micros % 1000000;
  }
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

Status WriteLine(const UniqueFd& fd, std::string_view line) {
  // Per line, not per send(2) retry: a fired point loses the WHOLE line,
  // the unit the protocol's error handling reasons about.
  PINCER_FAILPOINT("socket.write");
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE (an IoError here), not
    // a process-killing SIGPIPE.
    const ssize_t n = ::send(fd.get(), framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<bool> LineReader::ReadLine(std::string& line) {
  // Per line: a fired point drops the connection mid-protocol, the fault a
  // flaky peer or yanked cable produces.
  PINCER_FAILPOINT("socket.read");
  line.clear();
  for (;;) {
    const size_t newline = buffer_.find('\n', scan_);
    if (newline != std::string::npos) {
      line.assign(buffer_, pos_, newline - pos_);
      pos_ = newline + 1;
      scan_ = pos_;
      // Compact once the consumed prefix dominates the buffer.
      if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = 0;
        scan_ = 0;
      }
      return true;
    }
    // Everything buffered so far is searched: the next search starts at
    // the first byte the next recv appends.
    scan_ = buffer_.size();
    if (eof_) {
      if (pos_ < buffer_.size()) {
        line.assign(buffer_, pos_, buffer_.size() - pos_);
        buffer_.clear();
        pos_ = 0;
        scan_ = 0;
        return true;
      }
      return false;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // An armed SO_RCVTIMEO (SetRecvTimeout) expired while idle.
        return Status::IoError("recv timed out waiting for a line");
      }
      return Errno("recv");
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace pincer
