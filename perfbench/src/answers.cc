#include "answers.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

double RecallById(const std::vector<dblsh::Neighbor>& returned,
                  const std::vector<dblsh::Neighbor>& truth, size_t k) {
  if (k == 0) return 0.0;
  const size_t want = std::min(k, truth.size());
  std::unordered_set<uint32_t> exact;
  for (size_t i = 0; i < want; ++i) exact.insert(truth[i].id);
  size_t hits = 0;
  const size_t got = std::min(k, returned.size());
  for (size_t i = 0; i < got; ++i) hits += exact.erase(returned[i].id);
  return static_cast<double>(hits) / static_cast<double>(k);
}

std::string CheckAnswer(const std::vector<dblsh::Neighbor>& neighbors,
                        size_t k,
                        const std::function<bool(uint32_t)>& is_live) {
  if (neighbors.size() > k) {
    return "answer has " + std::to_string(neighbors.size()) +
           " results for k=" + std::to_string(k);
  }
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const dblsh::Neighbor& n = neighbors[i];
    if (!std::isfinite(n.dist) || n.dist < 0.f) {
      return "distance " + std::to_string(n.dist) + " is not a distance";
    }
    if (i > 0 && n.dist < neighbors[i - 1].dist) {
      return "distances not ascending at rank " + std::to_string(i);
    }
    if (!seen.insert(n.id).second) {
      return "id " + std::to_string(n.id) + " returned twice";
    }
    if (!is_live(n.id)) {
      return "id " + std::to_string(n.id) + " is not live";
    }
  }
  return "";
}

void Outcomes::Fail(const std::string& why) {
  ++attempted;
  ++failed;
  if (first_problem.empty()) first_problem = why;
}

void Outcomes::Invalid(const std::string& why) {
  ++invalid;
  Fail("invalid answer: " + why);
}

void Outcomes::Merge(const Outcomes& other) {
  attempted += other.attempted;
  failed += other.failed;
  invalid += other.invalid;
  if (first_problem.empty()) first_problem = other.first_problem;
}

}  // namespace perfbench
