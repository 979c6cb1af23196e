#include "platform/socket.hpp"

#include <cstring>
#include <utility>

#include "common/error.hpp"

#if ESL_HAVE_POSIX_SOCKETS
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace esl::platform {

SocketAddress SocketAddress::parse(const std::string& address) {
  SocketAddress parsed;
  if (address.rfind("unix:", 0) == 0) {
    parsed.family = Family::kUnix;
    parsed.path = address.substr(5);
    expects(!parsed.path.empty(), "socket address: empty unix path");
    return parsed;
  }
  if (address.rfind("tcp:", 0) == 0) {
    parsed.family = Family::kTcp;
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    expects(colon != std::string::npos && colon > 0 && colon + 1 < rest.size(),
            "socket address: tcp form is tcp:host:port");
    parsed.host = rest.substr(0, colon);
    long port = 0;
    for (std::size_t i = colon + 1; i < rest.size(); ++i) {
      const char c = rest[i];
      expects(c >= '0' && c <= '9', "socket address: port is not a number");
      port = port * 10 + (c - '0');
      expects(port <= 65535, "socket address: port out of range");
    }
    parsed.port = static_cast<std::uint16_t>(port);
    return parsed;
  }
  throw InvalidArgument(
      "socket address: expected unix:PATH or tcp:HOST:PORT, got \"" +
      address + "\"");
}

std::string SocketAddress::to_string() const {
  if (family == Family::kUnix) {
    return "unix:" + path;
  }
  return "tcp:" + host + ":" + std::to_string(port);
}

#if ESL_HAVE_POSIX_SOCKETS

namespace {

/// errno-enriched DataError (cold path; building the string is fine).
[[noreturn]] void throw_errno(const char* what) {
  throw DataError(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_un make_unix_sockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  expects(path.size() < sizeof(addr.sun_path),
          "socket address: unix path too long for sockaddr_un");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_sockaddr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // Numeric addresses only (plus the loopback name): the serving tier
  // addresses shards by IP; name resolution is an operator concern.
  const char* node = host == "localhost" ? "127.0.0.1" : host.c_str();
  expects(::inet_pton(AF_INET, node, &addr.sin_addr) == 1,
          "socket address: tcp host must be a numeric IPv4 address");
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::adopt(int fd) {
  Socket socket;
  socket.fd_ = fd;
  return socket;
}

Socket Socket::connect(const SocketAddress& address) {
  if (address.family == SocketAddress::Family::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw_errno("socket(AF_UNIX)");
    }
    const sockaddr_un addr = make_unix_sockaddr(address.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      throw_errno("connect(unix)");
    }
    return adopt(fd);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket(AF_INET)");
  }
  const sockaddr_in addr = make_tcp_sockaddr(address.host, address.port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw_errno("connect(tcp)");
  }
  // Frames are small and latency-sensitive (a flush round trip gates
  // the caller); Nagle would batch them against us.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return adopt(fd);
}

std::size_t Socket::send_some(std::span<const std::byte> bytes,
                              bool* would_block) {
  expects(valid(), "Socket::send_some: socket is closed");
  if (would_block != nullptr) {
    *would_block = false;
  }
#ifdef MSG_NOSIGNAL
  constexpr int k_flags = MSG_NOSIGNAL;
#else
  constexpr int k_flags = 0;
#endif
  while (true) {
    const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), k_flags);
    if (sent >= 0) {
      return static_cast<std::size_t>(sent);
    }
    if (errno == EINTR) {
      continue;
    }
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && would_block != nullptr) {
      *would_block = true;
      return 0;
    }
    throw_errno("Socket::send_some");
  }
}

std::size_t Socket::recv_some(std::span<std::byte> out, bool* would_block) {
  expects(valid(), "Socket::recv_some: socket is closed");
  if (would_block != nullptr) {
    *would_block = false;
  }
  while (true) {
    const ssize_t got = ::recv(fd_, out.data(), out.size(), 0);
    if (got >= 0) {
      return static_cast<std::size_t>(got);
    }
    if (errno == EINTR) {
      continue;
    }
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && would_block != nullptr) {
      *would_block = true;
      return 0;
    }
    throw_errno("Socket::recv_some");
  }
}

bool Socket::wait(bool writable) const {
  expects(valid(), "Socket::wait: socket is closed");
  pollfd entry{fd_, static_cast<short>(POLLIN | (writable ? POLLOUT : 0)), 0};
  while (::poll(&entry, 1, -1) < 0) {
    if (errno != EINTR) {
      throw_errno("Socket::wait");
    }
  }
  return (entry.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0;
}

void Socket::set_nonblocking(bool enabled) {
  expects(valid(), "Socket::set_nonblocking: socket is closed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    throw_errno("fcntl(F_GETFL)");
  }
  const int updated = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, updated) != 0) {
    throw_errno("fcntl(F_SETFL)");
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::~ListenSocket() { close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), address_(std::move(other.address_)) {
  other.fd_ = -1;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    address_ = std::move(other.address_);
    other.fd_ = -1;
  }
  return *this;
}

ListenSocket ListenSocket::listen(const SocketAddress& address, int backlog) {
  ListenSocket listener;
  listener.address_ = address;
  if (address.family == SocketAddress::Family::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw_errno("socket(AF_UNIX)");
    }
    // A previous server instance leaves the path behind; binding over a
    // stale socket file is the expected restart story.
    ::unlink(address.path.c_str());
    const sockaddr_un addr = make_unix_sockaddr(address.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      throw_errno("bind(unix)");
    }
    if (::listen(fd, backlog) != 0) {
      ::close(fd);
      throw_errno("listen(unix)");
    }
    listener.fd_ = fd;
    return listener;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket(AF_INET)");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_tcp_sockaddr(address.host, address.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw_errno("bind(tcp)");
  }
  if (::listen(fd, backlog) != 0) {
    ::close(fd);
    throw_errno("listen(tcp)");
  }
  // Report the kernel's choice for port 0 binds so the caller can hand
  // the real address to clients.
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  listener.address_.port = ntohs(addr.sin_port);
  listener.fd_ = fd;
  return listener;
}

Socket ListenSocket::accept() {
  expects(valid(), "ListenSocket::accept: listener is closed");
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      if (address_.family == SocketAddress::Family::kTcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      return Socket::adopt(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Socket();
    }
    throw_errno("ListenSocket::accept");
  }
}

void ListenSocket::set_nonblocking(bool enabled) {
  expects(valid(), "ListenSocket::set_nonblocking: listener is closed");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    throw_errno("fcntl(F_GETFL)");
  }
  const int updated = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, updated) != 0) {
    throw_errno("fcntl(F_SETFL)");
  }
}

void ListenSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (address_.family == SocketAddress::Family::kUnix) {
      ::unlink(address_.path.c_str());
    }
  }
}

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) {
    throw_errno("WakePipe: pipe");
  }
  // The wake side must never block a sink call; the read side is
  // polled, so it never blocks either.
  for (const int fd : fds_) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      throw_errno("WakePipe: fcntl");
    }
  }
}

WakePipe::~WakePipe() {
  for (int& fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void WakePipe::wake() {
  const char token = 1;
  // A full pipe already guarantees the loop will wake; EAGAIN is fine.
  [[maybe_unused]] const ssize_t ignored = ::write(fds_[1], &token, 1);
}

void WakePipe::drain() {
  char sink[64];
  while (::read(fds_[0], sink, sizeof(sink)) > 0) {
  }
}

#else  // !ESL_HAVE_POSIX_SOCKETS

namespace {
[[noreturn]] void unsupported() {
  throw DataError("sockets unavailable on this platform");
}
}  // namespace

Socket::~Socket() = default;
Socket::Socket(Socket&&) noexcept {}
Socket& Socket::operator=(Socket&&) noexcept { return *this; }
Socket Socket::adopt(int) { unsupported(); }
Socket Socket::connect(const SocketAddress&) { unsupported(); }
std::size_t Socket::send_some(std::span<const std::byte>, bool*) {
  unsupported();
}
std::size_t Socket::recv_some(std::span<std::byte>, bool*) { unsupported(); }
bool Socket::wait(bool) const { unsupported(); }
void Socket::set_nonblocking(bool) { unsupported(); }
void Socket::close() {}

ListenSocket::~ListenSocket() = default;
ListenSocket::ListenSocket(ListenSocket&&) noexcept {}
ListenSocket& ListenSocket::operator=(ListenSocket&&) noexcept {
  return *this;
}
ListenSocket ListenSocket::listen(const SocketAddress&, int) { unsupported(); }
void ListenSocket::set_nonblocking(bool) { unsupported(); }
Socket ListenSocket::accept() { unsupported(); }
void ListenSocket::close() {}

WakePipe::WakePipe() { unsupported(); }
WakePipe::~WakePipe() = default;
void WakePipe::wake() {}
void WakePipe::drain() {}

#endif  // ESL_HAVE_POSIX_SOCKETS

}  // namespace esl::platform
