#ifndef DBLSH_BASELINES_PM_LSH_H_
#define DBLSH_BASELINES_PM_LSH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ann_index.h"
#include "kdtree/kd_tree.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for PM-LSH (Zheng et al., PVLDB 2020). Paper settings:
/// c = 1.5, m = 15 projections, beta = 0.08.
struct PmLshParams {
  double c = 1.5;
  size_t m = 15;       ///< projected-space dimensionality
  double beta = 0.08;  ///< candidate budget fraction of n
  /// Confidence multiplier on the projected radius used for early stop: the
  /// search stops once the next projected distance exceeds
  /// `t_factor * sqrt(m) * (current k-th true distance)`. Plays the role of
  /// PM-LSH's chi-squared confidence bound.
  double t_factor = 1.2;
  uint64_t seed = 42;
};

/// PM-LSH: the representative dynamic metric-query (MQ) method. Indexing:
/// project to an m-dimensional space with 2-stable projections and index
/// the projected points with an exact low-dimensional NN structure (paper:
/// PM-tree; here: kd-tree with best-first incremental NN — see
/// docs/ARCHITECTURE.md, "Substitutions").
/// Query: enumerate projected-space neighbors in ascending distance and
/// verify them in the original space, stopping after beta*n + k
/// verifications or once the projected radius certifies the current top-k.
/// Because projections are 2-stable, the projected distance concentrates
/// around sqrt(m) times the original distance, which is what makes the
/// projected ordering a faithful candidate ranking.
class PmLsh : public AnnIndex {
 public:
  explicit PmLsh(PmLshParams params = PmLshParams());

  std::string Name() const override { return "PM-LSH"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return params_.m; }

 private:
  PmLshParams params_;
  std::unique_ptr<lsh::ProjectionBank> bank_;
  FloatMatrix projected_;  // n x m
  std::unique_ptr<kdtree::KdTree> tree_;
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_PM_LSH_H_
