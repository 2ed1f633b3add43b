// LD_PRELOAD shim that counts socket send/recv syscalls, loaded only in
// traced runs.
//
// /proc/<pid>/io (syscr/syscw/rchar/wchar) counts only calls that go
// through the VFS read/write paths; send(), recv(), sendto() and
// recvfrom() on a socket never touch those counters, so the net layer's
// syscall figures cannot come from /proc. This library wraps the four
// calls, counts each call (EAGAIN returns included — they are real
// syscalls) and the bytes moved, and forwards to libc.
//
// The counters are readable in-process through perfbench_syscount(),
// which the trial binary looks up with dlsym; a process that loaded the shim
// also writes them at exit to $PERFBENCH_SYSCOUNT_DIR/syscount-<pid>.txt
// so the trial binary can read the node processes' counts after they end.
#include <dlfcn.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

std::atomic<std::int64_t> g_writes{0};
std::atomic<std::int64_t> g_reads{0};
std::atomic<std::int64_t> g_bytes_written{0};
std::atomic<std::int64_t> g_bytes_read{0};

template <typename Fn>
Fn real(const char* name) {
  return reinterpret_cast<Fn>(::dlsym(RTLD_NEXT, name));
}

void count(std::atomic<std::int64_t>& calls, std::atomic<std::int64_t>& bytes,
           ssize_t n) {
  calls.fetch_add(1, std::memory_order_relaxed);
  if (n > 0) bytes.fetch_add(n, std::memory_order_relaxed);
}

__attribute__((destructor)) void write_counts() {
  const char* dir = std::getenv("PERFBENCH_SYSCOUNT_DIR");
  if (dir == nullptr) return;
  char path[4096];
  std::snprintf(path, sizeof(path), "%s/syscount-%d.txt", dir,
                static_cast<int>(::getpid()));
  if (FILE* f = std::fopen(path, "w")) {
    std::fprintf(f, "%lld %lld %lld %lld\n",
                 static_cast<long long>(g_writes.load()),
                 static_cast<long long>(g_reads.load()),
                 static_cast<long long>(g_bytes_written.load()),
                 static_cast<long long>(g_bytes_read.load()));
    std::fclose(f);
  }
}

}  // namespace

extern "C" {

/// {send-class calls, recv-class calls, bytes sent, bytes received}.
void perfbench_syscount(std::int64_t out[4]) {
  out[0] = g_writes.load(std::memory_order_relaxed);
  out[1] = g_reads.load(std::memory_order_relaxed);
  out[2] = g_bytes_written.load(std::memory_order_relaxed);
  out[3] = g_bytes_read.load(std::memory_order_relaxed);
}

ssize_t send(int fd, const void* buf, size_t len, int flags) {
  static const auto fn = real<ssize_t (*)(int, const void*, size_t, int)>("send");
  const ssize_t n = fn(fd, buf, len, flags);
  count(g_writes, g_bytes_written, n);
  return n;
}

ssize_t sendto(int fd, const void* buf, size_t len, int flags,
               const struct sockaddr* addr, socklen_t addr_len) {
  static const auto fn =
      real<ssize_t (*)(int, const void*, size_t, int, const struct sockaddr*,
                       socklen_t)>("sendto");
  const ssize_t n = fn(fd, buf, len, flags, addr, addr_len);
  count(g_writes, g_bytes_written, n);
  return n;
}

ssize_t recv(int fd, void* buf, size_t len, int flags) {
  static const auto fn = real<ssize_t (*)(int, void*, size_t, int)>("recv");
  const ssize_t n = fn(fd, buf, len, flags);
  count(g_reads, g_bytes_read, n);
  return n;
}

ssize_t recvfrom(int fd, void* buf, size_t len, int flags,
                 struct sockaddr* addr, socklen_t* addr_len) {
  static const auto fn =
      real<ssize_t (*)(int, void*, size_t, int, struct sockaddr*,
                       socklen_t*)>("recvfrom");
  const ssize_t n = fn(fd, buf, len, flags, addr, addr_len);
  count(g_reads, g_bytes_read, n);
  return n;
}

}  // extern "C"
