#ifndef DBLSH_BASELINES_LINEAR_SCAN_H_
#define DBLSH_BASELINES_LINEAR_SCAN_H_

#include "core/ann_index.h"

namespace dblsh {

/// Exact brute-force scan. Serves as the ground-truth oracle in tests and
/// as the "VHP degenerates to linear scan on large data" reference point in
/// the paper's discussion.
class LinearScan : public AnnIndex {
 public:
  std::string Name() const override { return "LinearScan"; }

  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;

  /// The scan holds no structures: it reads the matrix's current rows on
  /// every query and the shared verification path filters tombstones, so
  /// Insert/Erase only validate their argument. This makes LinearScan the
  /// exact reference oracle for mutation/query interleavings in tests.
  bool SupportsUpdates() const override { return true; }
  Status Insert(uint32_t id) override;
  Status Erase(uint32_t id) override;

  size_t NumHashFunctions() const override { return 0; }
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_LINEAR_SCAN_H_
