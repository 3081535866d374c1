#ifndef DBLSH_BASELINES_VHP_H_
#define DBLSH_BASELINES_VHP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bptree/bplus_tree.h"
#include "core/ann_index.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for VHP (Lu et al., PVLDB 2020). Paper settings: t0 = 1.4,
/// m = 60 (80 for very high-dimensional datasets).
struct VhpParams {
  double c = 1.5;
  size_t m = 60;       ///< projections / B+-trees
  double t0 = 1.4;     ///< hypersphere-to-hyperplane slack factor
  double collision_fraction = 0.0;  ///< 0 = auto
  double beta = 0.01;  ///< verification budget fraction of n
  uint64_t seed = 42;
};

/// VHP: approximate nearest neighbor search via virtual hypersphere
/// partitioning. Like QALSH it keeps one B+-tree per projection, but a
/// point is admitted against a *virtual hypersphere*: the per-dimension
/// window is widened by the slack factor t0 (the hyperplane bucket
/// circumscribing the sphere) while the collision threshold is lowered
/// accordingly — fewer dimensions need to agree, because agreement in a
/// widened window is weaker evidence. This trades tighter space usage for
/// more verification work; on large datasets its cost approaches a linear
/// scan, which is the behaviour Table IV reports.
class Vhp : public AnnIndex {
 public:
  explicit Vhp(VhpParams params = VhpParams());

  std::string Name() const override { return "VHP"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return params_.m; }

  /// B+-tree-backed like QALSH, so updates are plain tree insert/delete.
  bool SupportsUpdates() const override { return true; }
  /// See AnnIndex::Insert for the dataset-first update protocol.
  Status Insert(uint32_t id) override;
  Status Erase(uint32_t id) override;

 private:
  VhpParams params_;
  size_t collision_threshold_ = 0;
  double w_ = 1.0;
  double r_unit_ = 1.0;
  std::unique_ptr<lsh::ProjectionBank> bank_;
  FloatMatrix projected_;
  std::vector<bptree::BPlusTree> trees_;
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_VHP_H_
