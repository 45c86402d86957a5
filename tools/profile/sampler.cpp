// A CPU sampler to preload into any program of this repository:
//
//   export FLOWER_SAMPLER_OUT=prof/run
//   LD_PRELOAD=build/tools/profile/libflower_sampler.so build/tools/flower-sim
//   python3 tools/profile/report.py prof/run.*
//
// With FLOWER_SAMPLER_OUT set, a SIGPROF timer fires every 1 ms of the
// process's CPU time (ITIMER_PROF, all threads), or at the kernel's
// tick where that is coarser (4 ms at 250 Hz). The handler stores the
// interrupted PC and a backtrace() of its callers into a buffer mapped
// up front, so it never allocates. At exit the buffer goes to
// `$FLOWER_SAMPLER_OUT.<pid>` together with the executable mappings of
// /proc/self/maps, which report.py needs to symbolize the addresses.
// Without the variable the sampler does nothing.
//
// backtrace() is not async-signal-safe on paper; it is called once at
// start-up so that its unwinder is loaded before the first signal, and
// after that it neither allocates nor locks outside the unwinder's own
// tables. A program that throws or loads libraries while sampled could
// deadlock in the unwinder; the programs here do neither on their run
// paths.

#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr int kPeriodUs = 1000;
/// Callers kept per sample, beyond the interrupted PC.
constexpr int kMaxDepth = 48;
/// 2^18 samples: over four minutes of CPU at 1 kHz. The buffer is
/// mapped without reserve, so only the pages written become resident.
constexpr size_t kCapacity = size_t{1} << 18;

struct Sample {
  std::atomic<uint32_t> depth;  ///< 0 until the sample is complete.
  void* pc;
  void* callers[kMaxDepth];
};

Sample* g_samples = nullptr;
std::atomic<size_t> g_next{0};
char g_out[4096];

void* InterruptedPc(void* context) {
  const ucontext_t* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void OnProf(int /*signo*/, siginfo_t* /*info*/, void* context) {
  const int saved_errno = errno;
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kCapacity) {
    Sample& s = g_samples[i];
    s.pc = InterruptedPc(context);
    void* frames[kMaxDepth + 4];
    const int n = backtrace(frames, kMaxDepth + 4);
    // The first frames are this handler and the signal trampoline; the
    // unwinder then reports the interrupted PC itself, then its callers.
    int first = n < 2 ? n : 2;
    for (int k = 0; k < n && k < 4; ++k) {
      if (frames[k] == s.pc) {
        first = k + 1;
        break;
      }
    }
    int depth = 0;
    for (int k = first; k < n && depth < kMaxDepth; ++k) {
      s.callers[depth++] = frames[k];
    }
    s.depth.store(static_cast<uint32_t>(depth) + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

__attribute__((constructor)) void StartSampler() {
  const char* out = std::getenv("FLOWER_SAMPLER_OUT");
  if (out == nullptr || *out == '\0') return;
  std::snprintf(g_out, sizeof(g_out), "%s", out);
  void* buffer = mmap(nullptr, kCapacity * sizeof(Sample),
                      PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) {
    std::fprintf(stderr, "flower-sampler: cannot map the sample buffer\n");
    return;
  }
  g_samples = static_cast<Sample*>(buffer);
  void* warm[4];
  (void)backtrace(warm, 4);  // Loads the unwinder outside the handler.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void StopSampler() {
  if (g_samples == nullptr) return;
  struct itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);

  char path[4200];
  std::snprintf(path, sizeof(path), "%s.%ld", g_out,
                static_cast<long>(getpid()));
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "flower-sampler: cannot write %s\n", path);
    return;
  }
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  exe[len > 0 ? len : 0] = '\0';
  const size_t taken = g_next.load();
  std::fprintf(f, "flower-sampler 1\nperiod_us %d\nexe %s\ndropped %zu\n",
               kPeriodUs, exe, taken > kCapacity ? taken - kCapacity : 0);
  // The executable mappings, verbatim ("start-end perms offset dev
  // inode path"); report.py reads the fields.
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4600];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      const char* perms = std::strchr(line, ' ');
      if (perms != nullptr && std::strlen(perms) > 3 && perms[3] == 'x') {
        std::fprintf(f, "map %s", line);
      }
    }
    std::fclose(maps);
  }
  const size_t n = taken < kCapacity ? taken : kCapacity;
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = g_samples[i];
    const uint32_t depth = s.depth.load(std::memory_order_acquire);
    if (depth == 0) continue;  // Interrupted while being written.
    std::fprintf(f, "s %lx", reinterpret_cast<unsigned long>(s.pc));
    for (uint32_t k = 0; k + 1 < depth; ++k) {
      std::fprintf(f, " %lx", reinterpret_cast<unsigned long>(s.callers[k]));
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
}

}  // namespace
