// Sampling profiler loaded with LD_PRELOAD, for hosts without `perf`
// (scripts/profile.sh builds and uses it; scripts/profile_report.py reads
// what it writes).
//
// When CODA_SAMPLER_OUT names a file, a CLOCK_MONOTONIC timer signals the
// main thread 10000 times a second. Each sample records the interrupted
// instruction pointer and the return addresses of the frame-pointer chain,
// so the profiled program must be built with -fno-omit-frame-pointer. A
// sample taken inside a library function that keeps no frame (libstdc++'s
// tree rebalancing, say) still names that function, but its immediate
// caller is missing from the chain.
//
// The file holds 64-bit words: per sample a count n, then n addresses,
// innermost first. At exit the process's /proc/self/maps is copied to
// CODA_SAMPLER_OUT.maps, which maps each address to a file and offset.
// Only the main thread is sampled: run multi-threaded programs serially
// (CODA_JOBS=1). x86-64 Linux only.
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if !defined(__x86_64__) || !defined(__linux__)
#error "profile_sampler supports x86-64 Linux only"
#endif

namespace {

constexpr long kHz = 10000;
constexpr int kMaxDepth = 64;
// Words buffered before a write(): 1 MiB.
constexpr size_t kBufferWords = 1 << 17;

// Plain storage only: the exit path runs after this library's static
// destructors may have run.
int out_fd = -1;
char maps_path[4096];
timer_t timer;
uintptr_t stack_hi = 0;  // one past the main thread's stack
uint64_t buffer[kBufferWords];
size_t used = 0;

// write() until done; the handler and the exit path both flush with it.
void write_all(int fd, const void* data, size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = write(fd, p, bytes);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return;
    }
    p += n;
    bytes -= static_cast<size_t>(n);
  }
}

void flush() {
  write_all(out_fd, buffer, used * sizeof(uint64_t));
  used = 0;
}

void on_sample(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  if (used + kMaxDepth + 2 > kBufferWords) {
    flush();
  }
  const auto* uc = static_cast<const ucontext_t*>(context);
  const uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
  uint64_t* sample = buffer + used;
  size_t n = 0;
  sample[1 + n++] = uc->uc_mcontext.gregs[REG_RIP];
  // Every address in [sp, stack_hi) is mapped, so the walk reads nothing
  // else; a register that does not hold a frame pointer ends it.
  while (n < kMaxDepth && fp >= sp && fp % 8 == 0 && fp + 16 <= stack_hi) {
    const auto* frame = reinterpret_cast<const uintptr_t*>(fp);
    if (frame[1] == 0) {
      break;
    }
    sample[1 + n++] = frame[1];
    if (frame[0] <= fp) {
      break;
    }
    fp = frame[0];
  }
  sample[0] = n;
  used += n + 1;
  errno = saved_errno;
}

void copy_maps() {
  const int in = open("/proc/self/maps", O_RDONLY);
  const int out = open(maps_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (in >= 0 && out >= 0) {
    char chunk[1 << 16];
    ssize_t n = 0;
    while ((n = read(in, chunk, sizeof(chunk))) > 0) {
      write_all(out, chunk, static_cast<size_t>(n));
    }
  }
  if (in >= 0) {
    close(in);
  }
  if (out >= 0) {
    close(out);
  }
}

__attribute__((constructor)) void start() {
  const char* path = std::getenv("CODA_SAMPLER_OUT");
  if (path == nullptr || *path == '\0') {
    return;
  }
  pthread_attr_t attr;
  void* stack = nullptr;
  size_t stack_size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) {
    return;
  }
  pthread_attr_getstack(&attr, &stack, &stack_size);
  pthread_attr_destroy(&attr);
  stack_hi = reinterpret_cast<uintptr_t>(stack) + stack_size;

  const int len =
      std::snprintf(maps_path, sizeof(maps_path), "%s.maps", path);
  if (len < 0 || static_cast<size_t>(len) >= sizeof(maps_path)) {
    return;
  }
  out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out_fd < 0) {
    return;
  }
  struct sigaction sa {};
  sa.sa_sigaction = on_sample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  struct sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
    close(out_fd);
    out_fd = -1;
    return;
  }
  struct itimerspec period {};
  period.it_interval.tv_nsec = 1000000000L / kHz;
  period.it_value = period.it_interval;
  timer_settime(timer, 0, &period, nullptr);
}

__attribute__((destructor)) void stop() {
  if (out_fd < 0) {
    return;
  }
  timer_delete(timer);
  sigset_t prof;
  sigemptyset(&prof);
  sigaddset(&prof, SIGPROF);
  pthread_sigmask(SIG_BLOCK, &prof, nullptr);
  flush();
  close(out_fd);
  out_fd = -1;
  copy_maps();
}

}  // namespace
