// Thin POSIX socket layer for the cross-process serving tier.
//
// The net/ subsystem (wire protocol, ShardServer, RemoteBackend) moves
// frames between processes; this header is its only contact with the
// operating system's networking surface, the way mmap_file.hpp is the
// artifact layer's only contact with mmap. Two address families behind
// one string scheme:
//
//   "unix:/path/to.sock"   AF_UNIX stream socket (tests, same-host
//                          shards: no ports, no firewall, fastest)
//   "tcp:host:port"        AF_INET loopback or cross-host; port 0 asks
//                          the kernel for an ephemeral port, and
//                          ListenSocket::address() reports the bound one
//
// Blocking discipline: sockets are created blocking; the ShardServer
// event loop flips its accepted connections non-blocking and multiplexes
// them with poll(2). A ShardClient call is synchronous by contract, but
// its socket is non-blocking too: it sends with send_some and reads what
// the server pushed whenever the send buffer is full, blocking only in
// wait(). Sends mask SIGPIPE per call (MSG_NOSIGNAL) so a dropped peer
// surfaces as a DataError, never a process signal.
//
// Off POSIX (#if !ESL_HAVE_POSIX_SOCKETS) every operation throws
// DataError("sockets unavailable...") — the net/ subsystem compiles
// everywhere but only serves where the platform can.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace esl::platform {

#if defined(__unix__) || defined(__APPLE__)
#define ESL_HAVE_POSIX_SOCKETS 1
#else
#define ESL_HAVE_POSIX_SOCKETS 0
#endif

/// A parsed "unix:PATH" / "tcp:HOST:PORT" address string. Throws
/// InvalidArgument on any other scheme.
struct SocketAddress {
  enum class Family { kUnix, kTcp };
  Family family = Family::kUnix;
  std::string path;        // kUnix: filesystem path
  std::string host;        // kTcp
  std::uint16_t port = 0;  // kTcp; 0 = kernel-assigned

  static SocketAddress parse(const std::string& address);
  /// Canonical string form ("unix:..." / "tcp:host:port").
  std::string to_string() const;
};

/// Move-only owner of one connected stream-socket descriptor.
class Socket {
 public:
  /// Invalid (no descriptor).
  Socket() = default;
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to `address` (blocking). Throws DataError on failure.
  static Socket connect(const SocketAddress& address);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends what the socket accepts right now (a blocking socket waits
  /// until it accepts some). Returns the count written; 0 with
  /// `*would_block` set when a non-blocking socket's send buffer is
  /// full. Throws DataError when the peer is gone.
  std::size_t send_some(std::span<const std::byte> bytes,
                        bool* would_block = nullptr);
  /// Receives up to `out.size()` bytes. Returns the count actually
  /// read; 0 means the peer closed the stream (or, on a non-blocking
  /// socket, sets `*would_block` instead of returning 0 for EAGAIN).
  std::size_t recv_some(std::span<std::byte> out,
                        bool* would_block = nullptr);
  /// Blocks until the socket is readable or, when `writable` is set,
  /// writable. A hang-up or error counts as readable, so the next recv
  /// reports it. Returns whether the socket is readable.
  bool wait(bool writable) const;

  void set_nonblocking(bool enabled);
  void close();

  /// Adopts an already-open descriptor (accept() path).
  static Socket adopt(int fd);

 private:
  int fd_ = -1;
};

/// Move-only listening socket. TCP binds may use port 0 for a
/// kernel-assigned port; unix binds unlink a stale path first.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket();
  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  static ListenSocket listen(const SocketAddress& address, int backlog = 16);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The actual bound address: for "tcp:host:0" the port is resolved to
  /// the kernel's choice, so clients can be pointed at it.
  const SocketAddress& address() const { return address_; }

  /// Accepts one pending connection. On a non-blocking listener,
  /// returns an invalid Socket when no connection is pending.
  Socket accept();

  void set_nonblocking(bool enabled);

  void close();

 private:
  int fd_ = -1;
  SocketAddress address_;
};

/// Self-pipe for waking a poll()-based event loop from another thread
/// (detection sinks on shard workers must nudge the server loop to
/// write without waiting for the next socket event).
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  /// Descriptor the event loop polls for readability.
  int read_fd() const { return fds_[0]; }
  /// Makes read_fd() readable; safe from any thread, async-signal-safe.
  void wake();
  /// Consumes every pending wake token (call when read_fd() fires).
  void drain();

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace esl::platform
