// Single-threaded epoll reactor with per-peer outbound queues.
//
// Both sides of the cluster — the dcnt_node processes and the
// controller inside the cluster harness — drive all their sockets
// through EventLoop instances: TCP connections deliver complete frames
// to a per-connection callback, listeners deliver accepted sockets, a
// UDP socket delivers datagrams. Writes never block: send() /
// send_message() only append to the connection's outbound byte queue;
// run_once() flushes every backlog at entry (before waiting) and again
// after the round's callbacks, so all frames queued in one round leave
// in one write() per peer, and write-readiness is armed only for
// residue the kernel refused. One slow peer stalls neither the loop nor
// the other peers.
//
// The hot data-plane path is allocation-free: send_message() encodes
// the frame directly into the connection's outbound queue (no
// per-message temporary), and send_datagram_message() reuses one
// scratch buffer. write_syscalls() counts actual kernel writes; the
// bytes a caller queued per write syscall measure the coalescing.
//
// epoll keeps the interest set in the kernel and returns only ready
// fds, so a wakeup costs O(ready), and EPOLLOUT is toggled only when
// kernel pushback appears or clears.
//
// Threading. An EventLoop is owned by exactly one thread; every method
// must be called from that thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace dcnt::net {

class EventLoop {
 public:
  /// One complete frame payload (version + type + body) from connection
  /// `conn`.
  using FrameFn = std::function<void(int conn, const FrameView& frame)>;
  /// Peer hung up (EOF, ECONNRESET or other hard error — all treated as
  /// a clean close; on localhost a vanished peer is shutdown order, not
  /// data corruption). The connection is removed after the callback
  /// returns; sending to it afterwards is an error.
  using CloseFn = std::function<void(int conn)>;
  using AcceptFn = std::function<void(Socket accepted)>;
  using DatagramFn = std::function<void(const FrameView& frame)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers a connected TCP socket; returns its connection id.
  int add_connection(Socket sock, FrameFn on_frame, CloseFn on_close);
  void add_listener(Socket sock, AcceptFn on_accept);
  /// At most one UDP socket; datagrams must each hold one whole frame.
  void add_udp(Socket sock, DatagramFn on_datagram);

  /// Queues one encoded frame (length prefix included). The bytes leave
  /// at the next run_once() boundary, coalesced with everything else
  /// queued for the peer this round.
  void send(int conn, const std::vector<std::uint8_t>& frame);
  /// Move overload: when the connection's queue is empty the frame's
  /// buffer is adopted wholesale instead of copied.
  void send(int conn, std::vector<std::uint8_t>&& frame);
  /// Encodes one protocol Message (kMsg, or kKeyedMsg when it carries a
  /// key) straight into the connection's outbound queue — no
  /// intermediate buffer. Returns bytes queued.
  std::size_t send_message(int conn, const Message& msg);
  bool connected(int conn) const;
  std::size_t open_connections() const;
  /// Any open connection still holding unflushed outbound bytes? A node
  /// must drain this to false before exiting, or its last frames die in
  /// the queue.
  bool backlog() const;
  /// Flushes every open connection holding queued bytes (also done at
  /// both edges of run_once). Exposed so the node can push queued
  /// frames to the kernel before reporting its counters.
  void flush_all();

  /// One reactor round: waits up to `timeout_ms` (0 = just poll, -1 =
  /// indefinitely) for readiness, then performs all pending reads,
  /// accepts, datagram deliveries and queued writes. Returns the number
  /// of frames delivered to callbacks. Signals do not stretch the
  /// wait: one that interrupts it resumes it with only the time left.
  std::size_t run_once(int timeout_ms);

  /// Sends one frame as a datagram to 127.0.0.1:port via the UDP
  /// socket. Returns false when the kernel dropped it (counted by the
  /// caller as loss).
  bool send_datagram(std::uint16_t port, const std::vector<std::uint8_t>& frame);
  /// Datagram flavor of send_message: encodes into a reused scratch
  /// buffer (no allocation after the first call) and sends immediately
  /// (datagrams keep their boundaries; there is nothing to coalesce).
  /// Returns bytes sent, or 0 when the kernel dropped it.
  std::size_t send_datagram_message(std::uint16_t port, const Message& msg);

  /// Kernel write syscalls actually issued (TCP send() calls that moved
  /// bytes + UDP sendto() calls): the observable for frame coalescing.
  std::int64_t write_syscalls() const { return write_syscalls_; }

 private:
  struct Connection {
    Socket sock;
    FrameFn on_frame;
    CloseFn on_close;
    FrameReader reader;
    std::vector<std::uint8_t> outbound;
    std::size_t out_head{0};
    bool open{false};
    /// Is EPOLLOUT currently armed in the kernel set? Tracked so
    /// flush() issues EPOLL_CTL_MOD only on transitions.
    bool want_out{false};
  };

  void flush(Connection& c, int conn);
  /// Reads until EAGAIN; delivers complete frames. Returns frames
  /// delivered; flags close on EOF / ECONNRESET / hard error.
  std::size_t read_ready(int conn);
  std::size_t deliver_frames(int conn);
  void close_connection(int conn);
  std::size_t drain_udp();
  void accept_pending();

  // Tags identify what an fd is in epoll results: a connection id, or
  // one of these.
  static constexpr int kTagListener = -1;
  static constexpr int kTagUdp = -2;
  /// EPOLL_CTL_ADD / EPOLL_CTL_MOD with EPOLLIN, plus EPOLLOUT when
  /// `want_out`.
  void watch(int op, int fd, int tag, bool want_out);

  int epoll_fd_{-1};

  std::vector<std::unique_ptr<Connection>> connections_;
  Socket listener_;
  AcceptFn on_accept_;
  Socket udp_;
  DatagramFn on_datagram_;

  std::int64_t write_syscalls_{0};
  /// Reused by send_datagram_message.
  std::vector<std::uint8_t> dgram_scratch_;
};

}  // namespace dcnt::net
