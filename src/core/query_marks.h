#ifndef DBLSH_CORE_QUERY_MARKS_H_
#define DBLSH_CORE_QUERY_MARKS_H_

#include <cstddef>
#include <cstdint>

namespace dblsh {

/// A query's per-id marks: the visited stamps every method dedups its
/// candidates with, and the collision counters of the collision-counting
/// methods (QALSH, R2LSH, VHP). The buffers behind them belong to the
/// calling thread and serve every index it queries, so no index holds
/// per-query state and one built index can serve any number of threads.
///
/// The buffers are epoch-stamped: Begin() advances the thread's epoch, so a
/// stamp left by an earlier query, on any index, never equals the current
/// one and nothing is cleared between queries. They only grow, to the
/// largest row count the thread has queried, and are cleared only when the
/// 32-bit epoch wraps. A thread that never counts collisions parks 4 B per
/// row; counting adds 6 B per row.
///
/// A QueryMarks is a handle into those buffers, valid until the thread's
/// next Begin(): a query must not start another query on its own thread
/// (say, from a QueryFilter predicate) while it holds one.
class QueryMarks {
 public:
  /// Marks for a new query on the calling thread over ids in [0, rows):
  /// every id unvisited and at zero collisions. Collision counters exist
  /// only when `count_collisions` is set; call Collide() only then.
  static QueryMarks Begin(size_t rows, bool count_collisions = false);

  /// Stamps `id` visited; true on its first visit this query.
  bool Visit(uint32_t id) {
    if (visited_[id] == epoch_) return false;
    visited_[id] = epoch_;
    return true;
  }

  /// Counts one more collision of `id` with the query; returns its count
  /// so far this query.
  uint32_t Collide(uint32_t id) {
    if (count_epoch_[id] != epoch_) {
      count_epoch_[id] = epoch_;
      counts_[id] = 0;
    }
    return ++counts_[id];
  }

 private:
  QueryMarks(uint32_t* visited, uint32_t* count_epoch, uint16_t* counts,
             uint32_t epoch)
      : visited_(visited),
        count_epoch_(count_epoch),
        counts_(counts),
        epoch_(epoch) {}

  uint32_t* visited_;
  uint32_t* count_epoch_;
  uint16_t* counts_;
  uint32_t epoch_;
};

}  // namespace dblsh

#endif  // DBLSH_CORE_QUERY_MARKS_H_
