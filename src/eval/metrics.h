#ifndef DBLSH_EVAL_METRICS_H_
#define DBLSH_EVAL_METRICS_H_

#include <vector>

#include "util/top_k_heap.h"

namespace dblsh::eval {

/// Overall ratio (paper Eq. 11): mean over ranks i of
/// ||q, o_i|| / ||q, o*_i||. 1.0 is exact; the paper reports ~1.001-1.02.
/// When the method returns fewer than k points, the missing ranks are
/// counted at the worst observed ratio of the query (a conservative
/// convention).
double OverallRatio(const std::vector<Neighbor>& returned,
                    const std::vector<Neighbor>& ground_truth);

/// Recall (paper Eq. 12): |R intersect R*| / k. Matching is by distance
/// with a tolerance so ties with equal distance but different ids still
/// count (the standard convention for ANN benchmarks).
double Recall(const std::vector<Neighbor>& returned,
              const std::vector<Neighbor>& ground_truth);

}  // namespace dblsh::eval

#endif  // DBLSH_EVAL_METRICS_H_
