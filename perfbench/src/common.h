#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock) — the one clock every span,
/// schedule and latency in the benchmark is read from.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Median of `values` (0 for an empty list). Takes a copy: callers keep
/// their sample order.
double Median(std::vector<double> values);

/// A latency distribution: its median and p99 with the sample count and
/// the number of samples strictly above the p99 cut (the fewest in any
/// window, for a windowed p99). The p99 is only trusted when at least
/// kMinTail samples lie beyond it.
struct Percentiles {
  static constexpr size_t kMinTail = 10;
  size_t samples = 0;
  size_t windows = 1;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t beyond_p99 = 0;
  bool p99_supported() const { return beyond_p99 >= kMinTail; }
};

/// Nearest-rank percentiles of `values` (any unit).
Percentiles Summarize(std::vector<double> values);

/// Samples stamped with the time each was taken.
struct TimedSamples {
  std::vector<int64_t> at_ns;
  std::vector<double> values;
  void Add(int64_t at, double value) {
    at_ns.push_back(at);
    values.push_back(value);
  }
};

/// A timed phase: its rate (operations per second between the first and
/// last start), the mean over 1 s windows of each window's p50, and the
/// median over kTailWindowS windows of each window's p99. The host's
/// speed changes from second to second (other tenants' load): averaging
/// per-second medians follows the share of slow seconds smoothly where a
/// single median would jump between the fast and slow level, and the
/// median of window tails ignores a burst confined to one window, while a
/// slower program moves every window. `samples` are stamped when each
/// operation began.
struct PhaseStats {
  double rate = 0.0;  ///< operations per second
  Percentiles latency;
};
PhaseStats SummarizePhase(const TimedSamples& samples, int64_t start_ns,
                          double seconds);

/// Seconds per p99 window: 1000+ searches even at read-pq's ~300/s.
constexpr double kTailWindowS = 5.0;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable state and trace files; created and
  /// removed by the benchmark.
  std::string work_dir = ".bench_build/perfbench-work";
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
