#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval around a call into a layer. Spans of one request
/// share `request`; `parent` is the id of the span that caused this one
/// (0 for a root). `replay` marks a span measured on a benchmark-owned
/// copy of an object the program keeps private (the collection's store,
/// the index's trees).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t request = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool replay = false;
};

/// In-memory span recorder, written out once at the end of a traced run.
/// Disabled tracers record nothing and cost one branch per call.
/// Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const std::string& name, int64_t start_ns, int64_t end_ns,
                  int64_t request = -1, uint64_t parent = 0,
                  bool replay = false);

  /// Writes every span as one JSON object per line. Returns false on an
  /// IO failure.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
