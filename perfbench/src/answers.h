#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/top_k_heap.h"

namespace perfbench {

/// Share of the exact top-k ids that appear among the first k returned
/// ids. Matching is by id, not distance: quantized collections report
/// store distances, which a distance-matched recall would never accept.
double RecallById(const std::vector<dblsh::Neighbor>& returned,
                  const std::vector<dblsh::Neighbor>& truth, size_t k);

/// Validates one search answer: at most `k` results, distances finite,
/// non-negative and ascending, ids unique and accepted by `is_live`.
/// Returns the empty string for a valid answer, else the first violation.
std::string CheckAnswer(const std::vector<dblsh::Neighbor>& neighbors,
                        size_t k,
                        const std::function<bool(uint32_t)>& is_live);

/// Tally of attempted operations and their failures across a run. A
/// failure is an error status, a refused or shed request, a transport
/// failure or an invalid answer; invalid answers are also counted on their
/// own because they make the run incorrect.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t invalid = 0;
  std::string first_problem;

  void Ok() { ++attempted; }
  void Fail(const std::string& why);
  void Invalid(const std::string& why);
  void Merge(const Outcomes& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
