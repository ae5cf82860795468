// Large-allocation census: an LD_PRELOAD shim that counts every malloc and
// realloc of at least 1 MiB by call stack (DESIGN.md §15).
//
// Build (a diagnostic; no CMake target builds it):
//   g++ -std=c++20 -O2 -fPIC -shared -o alloc_census.so tools/alloc_census/alloc_census.cc
// Run a binary under it, then resolve the stacks to call sites:
//   LD_PRELOAD=$PWD/alloc_census.so ./build/bench/fig11_recovery
//   python3 tools/alloc_census/symbolize.py alloc_census.<pid>.txt
//
// At exit the process writes alloc_census.<pid>.txt into its working
// directory: a header line with the totals, then one line per distinct
// stack, "<calls>\t<bytes>\t<module>+0x<offset>;..." with return addresses
// as module-relative offsets (innermost first). operator new reaches malloc,
// so std::string and std::vector growth is counted; calloc, aligned
// allocation and mmap are not. Allocations the shim makes itself (the
// unwinder's first use, the report) are not counted.
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>

extern "C" void* __libc_malloc(size_t size);
extern "C" void* __libc_realloc(void* ptr, size_t size);

namespace {

constexpr size_t kLargeBytes = size_t{1} << 20;
constexpr int kFrames = 16;
constexpr size_t kSlots = 8192;  // distinct stacks; more are counted as lost

struct Site {
  void* frames[kFrames];
  int depth;
  uint64_t calls;
  uint64_t bytes;
};

Site g_sites[kSlots];
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
uint64_t g_calls = 0;
uint64_t g_bytes = 0;
uint64_t g_lost = 0;
__attribute__((tls_model("initial-exec"))) thread_local bool t_in_shim = false;

uint64_t HashFrames(void* const* frames, int depth) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the addresses
  for (int i = 0; i < depth; ++i) {
    h = (h ^ reinterpret_cast<uintptr_t>(frames[i])) * 1099511628211ull;
  }
  return h;
}

// Not inlined, so the two frames it skips are always itself and the hook.
__attribute__((noinline)) void Record(size_t size) {
  if (size < kLargeBytes || t_in_shim) {
    return;
  }
  t_in_shim = true;
  void* stack[kFrames + 2];
  int depth = backtrace(stack, kFrames + 2) - 2;
  void** frames = stack + 2;
  if (depth < 0) {
    depth = 0;
  }
  const uint64_t hash = HashFrames(frames, depth);
  while (g_lock.test_and_set(std::memory_order_acquire)) {
  }
  g_calls++;
  g_bytes += size;
  bool placed = false;
  for (size_t probe = 0; probe < kSlots && !placed; ++probe) {
    Site& site = g_sites[(hash + probe) % kSlots];
    if (site.calls == 0) {
      std::memcpy(site.frames, frames, sizeof(void*) * depth);
      site.depth = depth;
    } else if (site.depth != depth ||
               std::memcmp(site.frames, frames, sizeof(void*) * depth) != 0) {
      continue;
    }
    site.calls++;
    site.bytes += size;
    placed = true;
  }
  if (!placed) {
    g_lost++;
  }
  g_lock.clear(std::memory_order_release);
  t_in_shim = false;
}

// The main executable's path: dladdr names it by argv[0], which may be
// relative or empty.
void ExecutablePath(char* out, size_t len) {
  ssize_t n = readlink("/proc/self/exe", out, len - 1);
  out[n < 0 ? 0 : n] = '\0';
}

__attribute__((constructor)) void WarmUp() {
  // The unwinder loads libgcc_s on first use, which allocates.
  t_in_shim = true;
  void* frames[2];
  backtrace(frames, 2);
  t_in_shim = false;
}

__attribute__((destructor)) void WriteReport() {
  t_in_shim = true;
  char path[64];
  std::snprintf(path, sizeof(path), "alloc_census.%d.txt",
                static_cast<int>(getpid()));
  int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return;
  }
  char exe[512];
  ExecutablePath(exe, sizeof(exe));
  dprintf(fd, "# alloc_census calls=%llu bytes=%llu lost=%llu exe=%s\n",
          static_cast<unsigned long long>(g_calls),
          static_cast<unsigned long long>(g_bytes),
          static_cast<unsigned long long>(g_lost), exe);
  for (const Site& site : g_sites) {
    if (site.calls == 0) {
      continue;
    }
    dprintf(fd, "%llu\t%llu\t", static_cast<unsigned long long>(site.calls),
            static_cast<unsigned long long>(site.bytes));
    for (int i = 0; i < site.depth; ++i) {
      Dl_info info;
      const char* module = "?";
      uintptr_t offset = reinterpret_cast<uintptr_t>(site.frames[i]);
      if (dladdr(site.frames[i], &info) != 0) {
        module = info.dli_fname != nullptr && info.dli_fname[0] == '/'
                     ? info.dli_fname
                     : exe;
        offset -= reinterpret_cast<uintptr_t>(info.dli_fbase);
      }
      dprintf(fd, "%s%s+0x%lx", i == 0 ? "" : ";", module,
              static_cast<unsigned long>(offset));
    }
    dprintf(fd, "\n");
  }
  close(fd);
}

}  // namespace

extern "C" void* malloc(size_t size) {
  Record(size);
  return __libc_malloc(size);
}

extern "C" void* realloc(void* ptr, size_t size) {
  Record(size);
  return __libc_realloc(ptr, size);
}
