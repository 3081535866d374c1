#include "loadgen.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "common.h"

namespace perfbench {

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_s,
                                   double seconds)
    : start_ns_(start_ns),
      end_ns_(start_ns + static_cast<int64_t>(seconds * 1e9)),
      period_ns_(1e9 / rate_per_s),
      count_(static_cast<size_t>(std::floor(seconds * rate_per_s))) {}

int64_t OpenLoopSchedule::due_ns(size_t i) const {
  return start_ns_ + static_cast<int64_t>(static_cast<double>(i) * period_ns_);
}

void SleepUntil(int64_t deadline_ns) {
  const int64_t wait = deadline_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

std::vector<RequestTiming> RunOpenLoop(
    const OpenLoopSchedule& schedule,
    const std::function<bool(size_t)>& op) {
  std::vector<RequestTiming> timings(schedule.count());
  for (size_t i = 0; i < schedule.count(); ++i) {
    RequestTiming& t = timings[i];
    t.due_ns = schedule.due_ns(i);
    SleepUntil(t.due_ns);
    t.sent_ns = NowNs();
    t.ok = op(i);
    t.done_ns = NowNs();
  }
  return timings;
}

}  // namespace perfbench
