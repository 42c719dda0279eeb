#include "src/serve/net.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/fault_injection.h"

namespace seqhide {
namespace serve {
namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

Status Listener::ListenUnix(const std::string& path) {
  if (listening()) return Status::FailedPrecondition("already listening");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long (" +
                                   std::to_string(path.size()) + " bytes): " +
                                   path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  ::unlink(path.c_str());  // a stale socket file from a crashed server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = Errno("bind " + path);
    ::close(fd);
    return s;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const Status s = Errno("listen " + path);
    ::close(fd);
    ::unlink(path.c_str());
    return s;
  }
  fd_ = fd;
  unix_path_ = path;
  shut_down_.store(false, std::memory_order_release);
  return Status::OK();
}

Status Listener::ListenTcp(uint16_t port) {
  if (listening()) return Status::FailedPrecondition("already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = Errno("bind 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return s;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status s = Errno("getsockname");
    ::close(fd);
    return s;
  }
  fd_ = fd;
  port_ = ntohs(addr.sin_port);
  shut_down_.store(false, std::memory_order_release);
  return Status::OK();
}

Result<int> Listener::Accept() {
  for (;;) {
    if (fd_ < 0 || shut_down_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("listener is closed");
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (shut_down_.load(std::memory_order_acquire)) {
        return Status::FailedPrecondition("listener is closed");
      }
      return Errno("accept");
    }
    if (SEQHIDE_FAULT_HIT("net.accept")) {
      // Simulates accept() handing back a connection the kernel then
      // kills (or an fd-limit hiccup): the connection is lost, the
      // listener — and every other connection — is fine.
      ::close(fd);
      return Status::IOError("injected fault: net.accept");
    }
    return fd;
  }
}

void Listener::Shutdown() {
  std::lock_guard<std::mutex> lock(close_mu_);
  ShutdownLocked();
}

void Listener::ShutdownLocked() {
  if (fd_ < 0 || shut_down_.load(std::memory_order_relaxed)) return;
  shut_down_.store(true, std::memory_order_release);
  // shutdown() unblocks a concurrent accept() on Linux; close() alone
  // may leave it blocked forever.
  (void)::shutdown(fd_, SHUT_RDWR);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void Listener::Close() {
  std::lock_guard<std::mutex> lock(close_mu_);
  ShutdownLocked();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  unix_path_.clear();
}

LineChannel::~LineChannel() {
  if (fd_ >= 0) ::close(fd_);
}

Result<bool> LineChannel::ReadLine(std::string* line) {
  if (SEQHIDE_FAULT_HIT("net.read.short")) {
    return Status::IOError(
        "injected fault: net.read.short (peer vanished mid-line)");
  }
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    if (buffer_.size() > kMaxLineBytes) {
      return Status::IOError("line exceeds " + std::to_string(kMaxLineBytes) +
                             " bytes without a newline");
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (!buffer_.empty()) {
        return Status::IOError("connection closed mid-line (" +
                               std::to_string(buffer_.size()) +
                               " bytes buffered)");
      }
      return false;  // clean EOF
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Status LineChannel::WriteLine(const std::string& line) {
  if (SEQHIDE_FAULT_HIT("net.write.short")) {
    return Status::IOError(
        "injected fault: net.write.short (peer vanished mid-line)");
  }
  std::string framed = line;
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    // MSG_NOSIGNAL: a peer that already closed must yield EPIPE, not a
    // process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

void LineChannel::Shutdown() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_RDWR);
}

}  // namespace serve
}  // namespace seqhide
