#ifndef DBLSH_BASELINES_LSB_FOREST_H_
#define DBLSH_BASELINES_LSB_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ann_index.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for LSB-Forest (Tao et al., SIGMOD 2009).
struct LsbForestParams {
  size_t l = 8;        ///< number of LSB-trees
  size_t k = 8;        ///< hash functions (Z-order components) per tree
  size_t bits = 8;     ///< quantization bits per component (k*bits <= 64)
  double w0 = 16.0;    ///< bucket width in units of the sampled NN distance
                       ///< (the paper's setting for c = 2)
  /// Verification budget fraction of n (stands in for the paper's 4Bl/d
  /// leaf-entry budget, which the evaluation section scales up to 40Bl/d).
  double beta = 0.05;
  uint64_t seed = 42;
};

/// LSB-Forest: the static (K,L)-index method that supports multiple radii
/// with one index suite. Each LSB-tree hashes points with k E2LSH functions
/// floor((a.o + b)/w), interleaves the k bucket ids bit-by-bit into one
/// Z-order code, and keeps points sorted by that code (this repo keeps the
/// sorted array in memory instead of a disk B-tree — the paper itself
/// measures only CPU time for disk-based methods). A query walks outward
/// from its own code position in every tree simultaneously, always
/// expanding the tree whose next entry shares the longest Z-order prefix
/// with the query (longest common prefix = smallest merged bucket), which
/// is exactly the bucket-merging search of the paper.
class LsbForest : public AnnIndex {
 public:
  explicit LsbForest(LsbForestParams params = LsbForestParams());

  std::string Name() const override { return "LSB-Forest"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return params_.l * params_.k; }

 private:
  uint64_t ZOrderCode(const float* hashed) const;

  LsbForestParams params_;
  std::vector<std::unique_ptr<lsh::StaticHashFamily>> families_;  // per tree
  /// Per tree: (zcode, id) sorted by zcode.
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> sorted_;
  /// Per tree and component: shift making all hash values non-negative.
  std::vector<std::vector<int64_t>> shifts_;
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_LSB_FOREST_H_
