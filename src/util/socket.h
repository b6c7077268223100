// Thin Status-returning wrappers over the POSIX socket calls the serving
// layer needs: a listening Unix-domain or loopback TCP socket, blocking
// accept/connect, and line-oriented reads and writes for the daemon's
// newline-delimited JSON protocol. No event loop and no TLS — the daemon
// serves trusted local clients (the TCP listener binds 127.0.0.1 only).

#ifndef PINCER_UTIL_SOCKET_H_
#define PINCER_UTIL_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/statusor.h"

namespace pincer {

/// Owning file-descriptor handle: closes on destruction, move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Transfers ownership of the descriptor to the caller.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor now (idempotent).
  void Reset();

 private:
  int fd_ = -1;
};

/// Creates a Unix-domain stream socket listening at `path`. A stale file at
/// `path` is unlinked first (the daemon owns its socket path). IoError on
/// any syscall failure; InvalidArgument when `path` exceeds sun_path.
StatusOr<UniqueFd> ListenUnix(const std::string& path, int backlog = 16);

/// Creates a TCP stream socket listening on 127.0.0.1:`port` (port 0 picks
/// a free port; BoundTcpPort reports the choice).
StatusOr<UniqueFd> ListenTcp(uint16_t port, int backlog = 16);

/// The port a ListenTcp socket actually bound (resolves port 0).
StatusOr<uint16_t> BoundTcpPort(const UniqueFd& listener);

/// Blocking accept, retried on EINTR. IoError on failure — including when
/// the listener was shut down, which is the daemon's normal exit path, so
/// callers check their own stop flag before reporting it.
StatusOr<UniqueFd> AcceptConnection(const UniqueFd& listener);

/// Blocking connects for clients and tests.
StatusOr<UniqueFd> ConnectUnix(const std::string& path);
StatusOr<UniqueFd> ConnectTcp(uint16_t port);

/// Arms a receive timeout (SO_RCVTIMEO) on `fd`: a recv blocked longer than
/// `timeout_ms` fails, which LineReader::ReadLine reports as an IoError
/// naming the timeout. 0 disables (blocks forever). Sub-millisecond values
/// are rounded up to 1ms (SO_RCVTIMEO with a zero timeval means "no
/// timeout", the opposite of what a tiny budget asks for).
Status SetRecvTimeout(const UniqueFd& fd, double timeout_ms);

/// Writes `line` plus a trailing '\n' in full (handles short writes and
/// EINTR; SIGPIPE is suppressed in favor of an IoError return).
Status WriteLine(const UniqueFd& fd, std::string_view line);

/// Buffered reader yielding one newline-terminated line per call.
class LineReader {
 public:
  /// Reads from `fd`, which must outlive the reader.
  explicit LineReader(const UniqueFd& fd) : fd_(fd) {}

  /// Reads the next line (without its '\n') into `line`. Returns true on a
  /// line, false on clean EOF, IoError on read failure. A final unterminated
  /// line before EOF is returned as a line.
  StatusOr<bool> ReadLine(std::string& line);

 private:
  const UniqueFd& fd_;
  std::string buffer_;
  // Start of the unread line in buffer_.
  size_t pos_ = 0;
  // buffer_[pos_, scan_) holds no '\n': each search starts at scan_, so a
  // line spanning many recv chunks is scanned once.
  size_t scan_ = 0;
  bool eof_ = false;
};

}  // namespace pincer

#endif  // PINCER_UTIL_SOCKET_H_
