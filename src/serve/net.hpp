// Thin POSIX TCP layer for the lease protocol, with deterministic fault
// injection at the byte-I/O boundary.
//
// Fault sites (util/fault.hpp spec grammar):
//
//   net.accept   consulted per accepted connection; err closes it on the
//                spot (the worker sees EOF and retries), crash kills the
//                coordinator
//   net.read     consulted per read_some() call; err poisons the
//                connection (net_error), crash kills the reader
//   net.write    consulted per send_frame() call; err fails before any
//                byte lands, short lands HALF the frame and then fails —
//                the peer is left holding a torn length-prefixed frame,
//                the exact shape a mid-write kill produces — and crash
//                kills the writer (for workers: death mid-lease)
//
// Sockets stay in blocking mode everywhere. The coordinator's poll() loop
// only reads fds poll flagged readable, so single recv() calls cannot
// block; responses are small (<1 KiB) and the largest request (a complete
// of kMaxLeaseTrials records) is about 19 KiB, so blocking writes cannot
// deadlock against 64 KiB socket buffers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cid::serve {

/// A socket-layer failure: connect/bind errors, peer death, injected
/// net.* faults. Connection-fatal, never protocol-fatal — the coordinator
/// drops the one connection and reclaims its leases.
class net_error : public std::runtime_error {
 public:
  explicit net_error(const std::string& message)
      : std::runtime_error(message) {}
};

/// Move-only owning fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Listening IPv4 socket. Binds `host` (a dotted quad; "127.0.0.1" for
/// loopback-only coordinators) on `port`; port 0 binds an ephemeral port,
/// readable back via port().
class TcpListener {
 public:
  static TcpListener listen_on(const std::string& host, std::uint16_t port,
                               int backlog = 64);

  int fd() const noexcept { return socket_.fd(); }
  std::uint16_t port() const noexcept { return port_; }

  /// Accepts one pending connection (call only after poll() reports the
  /// listener readable). Returns an invalid Socket when the connection
  /// was injected away (net.accept:err) or already gone (ECONNABORTED).
  Socket accept();

 private:
  TcpListener(Socket socket, std::uint16_t port)
      : socket_(std::move(socket)), port_(port) {}
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Blocking connect to host:port; throws net_error on failure.
Socket tcp_connect(const std::string& host, std::uint16_t port);

/// Sets SO_RCVTIMEO so blocking reads fail (net_error "timed out") instead
/// of hanging a worker on a dead coordinator.
void set_recv_timeout(const Socket& socket, double seconds);

/// Parses "HOST:PORT" (host may be empty for 127.0.0.1). Throws net_error
/// on a malformed string or out-of-range port.
std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& endpoint);

/// Reads up to `cap` bytes (blocking; EINTR retried). Returns 0 on EOF;
/// throws net_error on errors, timeouts, and injected net.read faults.
std::size_t read_some(const Socket& socket, char* buffer, std::size_t cap);

/// Writes one already-encoded frame fully (EINTR/partial-write retried).
/// Throws net_error on failure and injected net.write faults; the "short"
/// kind lands half the frame first (see file comment).
void send_frame(const Socket& socket, std::string_view frame);

}  // namespace cid::serve
