#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// A fixed-rate open-loop schedule: request i is due at
/// start + i / rate, for every i whose due time falls inside the phase.
/// The count depends only on rate and length, so it repeats exactly.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s, double seconds);

  size_t count() const { return count_; }
  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  int64_t due_ns(size_t i) const;

 private:
  int64_t start_ns_;
  int64_t end_ns_;
  double period_ns_;
  size_t count_;
};

/// Timing of one open-loop request. Latency is charged from the due
/// time, not the send time, so a stall delays — and is charged to —
/// every request scheduled behind it.
struct RequestTiming {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;

  double latency_ms() const { return (done_ns - due_ns) / 1e6; }
  double late_ms() const { return (sent_ns - due_ns) / 1e6; }
  double service_ms() const { return (done_ns - sent_ns) / 1e6; }
};

/// Sleeps until `deadline_ns` on the NowNs() clock (returns at once when
/// it already passed).
void SleepUntil(int64_t deadline_ns);

/// Runs one blocking operation per scheduled request, in order, from the
/// calling thread: waits for each due time (never sends early), calls
/// `op(i)` — which returns whether the request succeeded — and records
/// its timing. A request that comes due while an earlier one is still
/// running is sent as soon as that one returns.
std::vector<RequestTiming> RunOpenLoop(
    const OpenLoopSchedule& schedule,
    const std::function<bool(size_t)>& op);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
