#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "support/check.hpp"

namespace dcnt::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  DCNT_CHECK(epoll_fd_ >= 0);
}

EventLoop::~EventLoop() { ::close(epoll_fd_); }

void EventLoop::watch(int op, int fd, int tag, bool want_out) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = static_cast<std::uint64_t>(static_cast<std::int64_t>(tag));
  DCNT_CHECK(::epoll_ctl(epoll_fd_, op, fd, &ev) == 0);
}

// --- registration -----------------------------------------------------------

int EventLoop::add_connection(Socket sock, FrameFn on_frame,
                              CloseFn on_close) {
  DCNT_CHECK(sock.valid());
  auto conn = std::make_unique<Connection>();
  conn->sock = std::move(sock);
  conn->on_frame = std::move(on_frame);
  conn->on_close = std::move(on_close);
  conn->open = true;
  connections_.push_back(std::move(conn));
  const int id = static_cast<int>(connections_.size()) - 1;
  watch(EPOLL_CTL_ADD, connections_.back()->sock.fd(), id, false);
  return id;
}

void EventLoop::add_listener(Socket sock, AcceptFn on_accept) {
  DCNT_CHECK(sock.valid());
  DCNT_CHECK_MSG(!listener_.valid(), "one listener per loop");
  listener_ = std::move(sock);
  on_accept_ = std::move(on_accept);
  watch(EPOLL_CTL_ADD, listener_.fd(), kTagListener, false);
}

void EventLoop::add_udp(Socket sock, DatagramFn on_datagram) {
  DCNT_CHECK(sock.valid());
  DCNT_CHECK_MSG(!udp_.valid(), "one UDP socket per loop");
  udp_ = std::move(sock);
  on_datagram_ = std::move(on_datagram);
  watch(EPOLL_CTL_ADD, udp_.fd(), kTagUdp, false);
}

bool EventLoop::connected(int conn) const {
  return conn >= 0 && static_cast<std::size_t>(conn) < connections_.size() &&
         connections_[static_cast<std::size_t>(conn)]->open;
}

bool EventLoop::backlog() const {
  for (const auto& c : connections_) {
    if (c->open && c->out_head < c->outbound.size()) return true;
  }
  return false;
}

std::size_t EventLoop::open_connections() const {
  std::size_t n = 0;
  for (const auto& c : connections_) {
    if (c->open) ++n;
  }
  return n;
}

// --- send path --------------------------------------------------------------

void EventLoop::send(int conn, const std::vector<std::uint8_t>& frame) {
  DCNT_CHECK_MSG(connected(conn), "send on a closed connection");
  Connection& c = *connections_[static_cast<std::size_t>(conn)];
  c.outbound.insert(c.outbound.end(), frame.begin(), frame.end());
  ++frames_sent_;
  bytes_sent_ += static_cast<std::int64_t>(frame.size());
}

void EventLoop::send(int conn, std::vector<std::uint8_t>&& frame) {
  DCNT_CHECK_MSG(connected(conn), "send on a closed connection");
  Connection& c = *connections_[static_cast<std::size_t>(conn)];
  ++frames_sent_;
  bytes_sent_ += static_cast<std::int64_t>(frame.size());
  if (c.outbound.empty()) {
    // Adopt the buffer; the caller's (now cleared) vector inherits
    // whatever capacity the queue had.
    std::swap(c.outbound, frame);
    frame.clear();
    return;
  }
  c.outbound.insert(c.outbound.end(), frame.begin(), frame.end());
}

std::size_t EventLoop::send_message(int conn, const Message& msg) {
  DCNT_CHECK_MSG(connected(conn), "send on a closed connection");
  Connection& c = *connections_[static_cast<std::size_t>(conn)];
  const std::size_t n = append_message(c.outbound, msg);
  ++frames_sent_;
  bytes_sent_ += static_cast<std::int64_t>(n);
  return n;
}

std::size_t EventLoop::send_keyed_message(int conn, const Message& msg) {
  DCNT_CHECK_MSG(connected(conn), "send on a closed connection");
  Connection& c = *connections_[static_cast<std::size_t>(conn)];
  const std::size_t n = append_keyed_message(c.outbound, msg);
  ++frames_sent_;
  bytes_sent_ += static_cast<std::int64_t>(n);
  return n;
}

bool EventLoop::send_datagram(std::uint16_t port,
                              const std::vector<std::uint8_t>& frame) {
  DCNT_CHECK_MSG(udp_.valid(), "no UDP socket registered");
  const bool ok = udp_send(udp_, port, frame.data(), frame.size());
  ++write_syscalls_;
  if (ok) ++datagrams_sent_;
  return ok;
}

std::size_t EventLoop::send_datagram_message(std::uint16_t port,
                                             const Message& msg) {
  dgram_scratch_.clear();
  const std::size_t n = append_message(dgram_scratch_, msg);
  return send_datagram(port, dgram_scratch_) ? n : 0;
}

std::size_t EventLoop::send_datagram_keyed_message(std::uint16_t port,
                                                   const Message& msg) {
  dgram_scratch_.clear();
  const std::size_t n = append_keyed_message(dgram_scratch_, msg);
  return send_datagram(port, dgram_scratch_) ? n : 0;
}

void EventLoop::flush(Connection& c, int conn) {
  while (c.out_head < c.outbound.size()) {
    ssize_t n;
    do {
      n = ::send(c.sock.fd(), c.outbound.data() + c.out_head,
                 c.outbound.size() - c.out_head, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      ++write_syscalls_;
      c.out_head += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel pushback: arm write-readiness for the residue.
      if (!c.want_out) {
        c.want_out = true;
        watch(EPOLL_CTL_MOD, c.sock.fd(), conn, true);
      }
      return;
    }
    // EPIPE/ECONNRESET: the peer is gone; the next reactor round
    // surfaces it as a close event. Drop the backlog so we stop
    // retrying.
    c.outbound.clear();
    c.out_head = 0;
    break;
  }
  c.outbound.clear();
  c.out_head = 0;
  if (c.want_out) {
    c.want_out = false;
    watch(EPOLL_CTL_MOD, c.sock.fd(), conn, false);
  }
}

void EventLoop::flush_all() {
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    Connection& c = *connections_[i];
    if (c.open && c.out_head < c.outbound.size()) {
      flush(c, static_cast<int>(i));
    }
  }
}

// --- receive path -----------------------------------------------------------

std::size_t EventLoop::deliver_frames(int conn) {
  Connection& c = *connections_[static_cast<std::size_t>(conn)];
  std::size_t delivered = 0;
  std::vector<std::uint8_t> payload;
  // A callback may close the connection mid-batch; re-check.
  while (c.open && c.reader.pop(payload)) {
    ++frames_received_;
    ++delivered;
    c.on_frame(conn, FrameView(payload.data(), payload.size()));
  }
  return delivered;
}

std::size_t EventLoop::read_ready(int conn) {
  Connection& c = *connections_[static_cast<std::size_t>(conn)];
  std::uint8_t buf[64 * 1024];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_received_ += n;
      c.reader.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // n == 0 (orderly EOF) or a hard error. ECONNRESET deserves the
    // same treatment as EOF: on localhost it means the peer exited with
    // bytes still in our send queue — shutdown order, not data loss,
    // because the quiescence barrier certified emptiness first. Either
    // way: deliver what is already buffered, then run the close path.
    closed = true;
    break;
  }
  std::size_t delivered = deliver_frames(conn);
  if (closed) close_connection(conn);
  return delivered;
}

void EventLoop::close_connection(int conn) {
  Connection& c = *connections_[static_cast<std::size_t>(conn)];
  if (!c.open) return;
  c.open = false;
  // Ignore failure: the fd may already be gone (closed by the kernel
  // after an error) — deregistration is then implicit.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.sock.fd(), nullptr);
  if (c.on_close) c.on_close(conn);
  c.sock.close();
}

void EventLoop::accept_pending() {
  for (;;) {
    Socket accepted = tcp_accept(listener_);
    if (!accepted.valid()) break;
    on_accept_(std::move(accepted));
  }
}

std::size_t EventLoop::drain_udp() {
  std::uint8_t buf[64 * 1024];
  std::size_t delivered = 0;
  int n;
  while ((n = udp_recv(udp_, buf, sizeof(buf))) >= 0) {
    // One frame per datagram: strip the length word, hand over the
    // payload. A datagram truncated by the kernel would fail the
    // FrameView checks; buffers are sized to prevent that.
    if (n < 6) continue;  // runt datagram: treat as line noise
    ++datagrams_received_;
    FrameReader one;
    one.feed(buf, static_cast<std::size_t>(n));
    std::vector<std::uint8_t> payload;
    while (one.pop(payload)) {
      ++delivered;
      on_datagram_(FrameView(payload.data(), payload.size()));
    }
  }
  return delivered;
}

std::size_t EventLoop::run_once(int timeout_ms) {
  // Everything queued since the last round leaves now, coalesced into
  // one write() per peer (modulo kernel pushback, which arms
  // write-readiness for the residue).
  flush_all();
  epoll_event events[64];
  int ready;
  do {
    ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  DCNT_CHECK(ready >= 0);
  if (ready == 0) return 0;

  std::size_t delivered = 0;
  for (int i = 0; i < ready; ++i) {
    const int tag =
        static_cast<int>(static_cast<std::int64_t>(events[i].data.u64));
    if (tag == kTagListener) {
      accept_pending();
      continue;
    }
    if (tag == kTagUdp) {
      delivered += drain_udp();
      continue;
    }
    Connection& c = *connections_[static_cast<std::size_t>(tag)];
    if (!c.open) continue;
    const std::uint32_t mask = events[i].events;
    if (mask & EPOLLOUT) flush(c, tag);
    // HUP/ERR go down the read path, which surfaces them as a close.
    if (mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) delivered += read_ready(tag);
  }
  // Frames the callbacks queued this round (acks, forwards, replies)
  // leave before the caller decides whether to sleep.
  flush_all();
  return delivered;
}

}  // namespace dcnt::net
