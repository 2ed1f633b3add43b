// Reactor unit tests: frames round-trip coalesced, and the syscall-edge
// hardening holds — a peer vanishing mid-frame (orderly FIN or abortive
// RST) is a clean close callback, never a crash or a torn frame
// delivery. And a signal storm cannot stretch a timed wait.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
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
        CompleteBatchFrame done;
        ASSERT_TRUE(decode_complete_batch(f, &done));
        for (const CompleteBatchEntry& e : done.completions) {
          seen.push_back(e.value);
        }
      },
      [](int) {});
  a.send(ca, encode_complete_batch(CompleteBatchFrame{{{0, 41}}}));
  a.send(ca, encode_complete_batch(CompleteBatchFrame{{{1, 42}}}));
  a.run_once(0);  // flush both frames — coalesced into one write
  for (int i = 0; i < 2000 && seen.size() < 2; ++i) b.run_once(5);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 41);
  EXPECT_EQ(seen[1], 42);
  EXPECT_EQ(a.write_syscalls(), 1);
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

std::atomic<int> g_signals_seen{0};

void count_signal(int) { g_signals_seen.fetch_add(1); }

TEST(EventLoop, RunOnceTimesOutWhileSignalsArrive) {
  // A periodic signal (a profiler's SIGPROF, any handler a user
  // installs) interrupts epoll_wait with EINTR. Restarting the wait
  // with the full timeout each time would keep an idle run_once(20)
  // waiting for as long as the signals keep coming, here 2 s; it must
  // time out after about 20 ms of wall time instead.
  struct sigaction quiet {};
  quiet.sa_handler = count_signal;
  sigemptyset(&quiet.sa_mask);
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &saved), 0);
  g_signals_seen.store(0);

  EventLoop loop;
  const pthread_t reactor = ::pthread_self();
  std::atomic<bool> done{false};
  std::thread storm([&] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!done.load() && std::chrono::steady_clock::now() < until) {
      ::pthread_kill(reactor, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Let the storm start before the wait begins.
  while (g_signals_seen.load() == 0) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t delivered = loop.run_once(20);
  const auto waited = std::chrono::steady_clock::now() - t0;
  const int seen_during = g_signals_seen.load();
  done.store(true);
  storm.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &saved, nullptr), 0);

  EXPECT_EQ(delivered, 0u);
  EXPECT_LT(waited, std::chrono::milliseconds(500));
  EXPECT_GE(waited, std::chrono::milliseconds(19));
  EXPECT_GT(seen_during, 1);  // the wait really was interrupted
}

}  // namespace
}  // namespace dcnt::net
