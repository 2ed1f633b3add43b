// Reactor unit tests: frames round-trip coalesced, and the syscall-edge
// hardening holds — a peer vanishing mid-frame (orderly FIN or abortive
// RST) is a clean close callback, never a crash or a torn frame
// delivery.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace dcnt::net {
namespace {

/// Listener + connected client/server pair on 127.0.0.1:<ephemeral>.
struct Pair {
  Socket listener;
  Socket client;
  Socket server;
};

Pair make_pair_sockets() {
  Pair p;
  std::uint16_t port = 0;
  p.listener = tcp_listen(&port);
  p.client = tcp_connect(port, 2000);
  // tcp_connect returned, so the connection is at least queued; accept
  // may still race the handshake on a loaded machine.
  for (int i = 0; i < 2000 && !p.server.valid(); ++i) {
    p.server = tcp_accept(p.listener);
    if (!p.server.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(p.server.valid());
  return p;
}

void write_raw(const Socket& sock, const std::uint8_t* data,
               std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n =
        ::send(sock.fd(), data + off, size - off, MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      continue;
    }
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

TEST(EventLoop, RoundTripBothBackends) {
  Pair p = make_pair_sockets();
  EventLoop a;
  EventLoop b;
  std::vector<Value> seen;
  const int ca = a.add_connection(
      std::move(p.client), [](int, const FrameView&) {}, [](int) {});
  b.add_connection(
      std::move(p.server),
      [&](int, const FrameView& f) {
        seen.push_back(decode_complete(f).value);
      },
      [](int) {});
  a.send(ca, encode_complete(CompleteFrame{0, 41}));
  a.send(ca, encode_complete(CompleteFrame{1, 42}));
  a.run_once(0);  // flush both frames — coalesced into one write
  for (int i = 0; i < 2000 && seen.size() < 2; ++i) b.run_once(5);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 41);
  EXPECT_EQ(seen[1], 42);
  EXPECT_EQ(a.frames_sent(), 2);
  EXPECT_EQ(b.frames_received(), 2);
}

TEST(EventLoop, PeerFinMidFrameIsCleanClose) {
  // The peer writes half a frame, then closes in an orderly way (FIN).
  // The loop must fire on_close exactly once, deliver no frame, and
  // keep running.
  Pair p = make_pair_sockets();
  EventLoop loop;
  int closes = 0;
  int frames = 0;
  const int conn = loop.add_connection(
      std::move(p.server), [&](int, const FrameView&) { ++frames; },
      [&](int) { ++closes; });
  const auto frame = encode_ready(ReadyFrame{7});
  write_raw(p.client, frame.data(), frame.size() / 2);
  p.client.close();
  for (int i = 0; i < 2000 && closes == 0; ++i) loop.run_once(5);
  EXPECT_EQ(closes, 1);
  EXPECT_EQ(frames, 0);
  EXPECT_FALSE(loop.connected(conn));
  EXPECT_EQ(loop.open_connections(), 0u);
  loop.run_once(0);  // the loop stays usable after the close
}

TEST(EventLoop, PeerResetMidFrameIsCleanClose) {
  // Same, but the peer dies abortively: SO_LINGER(0) turns close() into
  // RST, so the loop sees ECONNRESET instead of EOF. On localhost that
  // is shutdown order, not corruption — same clean close path.
  Pair p = make_pair_sockets();
  EventLoop loop;
  int closes = 0;
  int frames = 0;
  loop.add_connection(
      std::move(p.server), [&](int, const FrameView&) { ++frames; },
      [&](int) { ++closes; });
  const auto frame = encode_ready(ReadyFrame{7});
  write_raw(p.client, frame.data(), frame.size() / 2);
  const struct linger lg {1, 0};
  ASSERT_EQ(::setsockopt(p.client.fd(), SOL_SOCKET, SO_LINGER, &lg,
                         sizeof(lg)),
            0);
  p.client.close();
  for (int i = 0; i < 2000 && closes == 0; ++i) loop.run_once(5);
  EXPECT_EQ(closes, 1);
  EXPECT_EQ(frames, 0);
  EXPECT_EQ(loop.open_connections(), 0u);
}

}  // namespace
}  // namespace dcnt::net
