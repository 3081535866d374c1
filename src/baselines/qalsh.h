#ifndef DBLSH_BASELINES_QALSH_H_
#define DBLSH_BASELINES_QALSH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bptree/bplus_tree.h"
#include "core/ann_index.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for QALSH (Huang et al., PVLDB 2015), the representative
/// collision-counting (C2) method with query-aware one-dimensional buckets.
struct QalshParams {
  double c = 1.5;          ///< approximation ratio
  double w = 0.0;          ///< base bucket width; 0 = auto (QALSH's w*,
                           ///< scaled to the data's sampled NN distance)
  size_t m = 60;           ///< number of hash functions / B+-trees
  /// Collision threshold as a fraction of m; a point becomes a candidate
  /// once it collides with the query in >= ceil(fraction * m) dimensions.
  /// QALSH sets this between p2 and p1; the midpoint is used by default.
  double collision_fraction = 0.0;  ///< 0 = auto ((p1 + p2) / 2)
  /// Verification budget as a fraction of n (QALSH checks beta*n + k
  /// candidates in the worst case).
  double beta = 0.01;
  uint64_t seed = 42;
};

/// QALSH: projects points with m independent 2-stable hash functions, keeps
/// one B+-tree per function, and at query time expands query-centric
/// one-dimensional windows [h_i(q) - wR/2, h_i(q) + wR/2] in lockstep over
/// all trees (virtual rehashing R = 1, c, c^2, ...). A point whose window
/// hits reach the collision threshold becomes a candidate and is verified
/// in the original space. Its search region is the cross-shaped union of
/// slabs the paper's Fig. 2 depicts — unbounded, which is why its cost can
/// approach a linear scan.
class Qalsh : public AnnIndex {
 public:
  explicit Qalsh(QalshParams params = QalshParams());

  std::string Name() const override { return "QALSH"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return params_.m; }

  /// QALSH's B+-trees are ordinary secondary indexes, so updates are plain
  /// tree insert/delete — the updatability argument of its paper (Sec. 1).
  bool SupportsUpdates() const override { return true; }
  /// Projects row `id` and inserts (projection, id) into all m B+-trees.
  /// See AnnIndex::Insert for the dataset-first update protocol.
  Status Insert(uint32_t id) override;
  /// Deletes `id` from all m B+-trees (underflow-merging tree deletion).
  Status Erase(uint32_t id) override;

  const QalshParams& params() const { return params_; }

 private:
  QalshParams params_;
  size_t collision_threshold_ = 0;
  double r_unit_ = 1.0;  ///< radius-ladder unit (sampled NN distance / c)
  std::unique_ptr<lsh::ProjectionBank> bank_;
  FloatMatrix projected_;  // n x m
  std::vector<bptree::BPlusTree> trees_;
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_QALSH_H_
