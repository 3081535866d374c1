#ifndef DBLSH_UTIL_PERFMON_H_
#define DBLSH_UTIL_PERFMON_H_

#include <cstddef>
#include <cstdio>

namespace dblsh {
namespace perfmon {

/// Process memory snapshot in bytes. Zeroes (not errors) when the platform
/// has no /proc; callers report 0 rather than fail.
struct MemoryUsage {
  size_t resident_bytes = 0;  ///< current RSS
  size_t peak_resident_bytes = 0;  ///< high-water RSS since process start
};

/// The system page size (statm's unit). 4 KiB everywhere this project's
/// CI runs; probing sysconf would drag in <unistd.h> for no observable
/// difference there.
constexpr size_t kPageSize() { return 4096; }

/// Samples the calling process's resident set from /proc/self/statm
/// (current) and /proc/self/status VmHWM (peak). Linux-only by design —
/// perfbench and dblsh_tool, which report memory, run on Linux; elsewhere
/// this degrades to zeroes instead of adding a dependency.
inline MemoryUsage SampleMemory() {
  MemoryUsage usage;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    // statm fields are in pages: size resident shared text lib data dt.
    unsigned long long size_pages = 0, resident_pages = 0;
    if (std::fscanf(statm, "%llu %llu", &size_pages, &resident_pages) == 2) {
      usage.resident_bytes =
          static_cast<size_t>(resident_pages) * kPageSize();
    }
    std::fclose(statm);
  }
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      unsigned long long kib = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
        usage.peak_resident_bytes = static_cast<size_t>(kib) * 1024;
        break;
      }
    }
    std::fclose(status);
  }
  return usage;
}

}  // namespace perfmon
}  // namespace dblsh

#endif  // DBLSH_UTIL_PERFMON_H_
