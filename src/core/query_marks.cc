#include "core/query_marks.h"

#include <algorithm>
#include <vector>

namespace dblsh {

QueryMarks QueryMarks::Begin(size_t rows, bool count_collisions) {
  struct Buffers {
    std::vector<uint32_t> visited;      // id -> epoch of its last visit
    std::vector<uint32_t> count_epoch;  // id -> epoch its count belongs to
    std::vector<uint16_t> counts;       // id -> collisions in that epoch
    uint32_t epoch = 0;
  };
  static thread_local Buffers buffers;
  if (++buffers.epoch == 0) {  // wrapped: old stamps could alias new epochs
    std::fill(buffers.visited.begin(), buffers.visited.end(), 0);
    std::fill(buffers.count_epoch.begin(), buffers.count_epoch.end(), 0);
    buffers.epoch = 1;
  }
  // Grown entries start at stamp 0, which no epoch ever equals.
  if (buffers.visited.size() < rows) buffers.visited.resize(rows, 0);
  if (count_collisions && buffers.counts.size() < rows) {
    buffers.count_epoch.resize(rows, 0);
    buffers.counts.resize(rows, 0);
  }
  return QueryMarks(buffers.visited.data(), buffers.count_epoch.data(),
                    buffers.counts.data(), buffers.epoch);
}

}  // namespace dblsh
