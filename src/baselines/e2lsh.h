#ifndef DBLSH_BASELINES_E2LSH_H_
#define DBLSH_BASELINES_E2LSH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/ann_index.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for classic E2LSH (Datar et al. 2004 / Andoni-Indyk 2016),
/// the static (K,L)-index reference the paper contrasts DB-LSH against in
/// Table I and Fig. 2.
struct E2LshParams {
  double c = 1.5;
  size_t k = 8;           ///< hash functions per compound hash
  size_t l = 5;           ///< tables per radius level
  /// Radius levels r = r0, c*r0, ..., c^(levels-1)*r0 for which bucket
  /// tables are materialized ahead of time — this is exactly the
  /// "prepare a (K,L)-index for each (r,c)-NN" space cost the paper
  /// criticizes (index size multiplies by `levels`).
  size_t levels = 12;
  double w0 = 0.0;        ///< base bucket width; 0 = auto (4c^2, paper-style)
  double beta = 0.02;     ///< verification budget fraction of n
  uint64_t seed = 42;
};

/// E2LSH: static query-oblivious bucketing. For each radius level j it
/// keeps L hash tables mapping the K-dimensional compound bucket id of
/// every point (grid cells of width w0 * c^j * r0 in projection space) to
/// the point list. A c-ANN query walks the levels in order, probing the
/// single bucket containing the query in each table, until a point within
/// c*r certifies the answer or the budget runs out. Near-boundary
/// neighbors land in different cells — the hash boundary problem that
/// motivates DB-LSH's query-centric buckets.
class E2Lsh : public AnnIndex {
 public:
  explicit E2Lsh(E2LshParams params = E2LshParams());

  std::string Name() const override { return "E2LSH"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override {
    return params_.k * params_.l * params_.levels;
  }

  /// Total bucket entries across all levels (index size accounting — grows
  /// as levels * L * n, the cost Table I attributes to E2LSH).
  size_t IndexEntries() const;

 private:
  using Bucket = std::vector<uint32_t>;
  using Table = std::unordered_map<uint64_t, Bucket>;

  /// Compound bucket id of `point` in table `table` at radius level
  /// `level`, mixed into one 64-bit key.
  uint64_t BucketKey(size_t level, size_t table, const float* point) const;

  E2LshParams params_;
  double r0_ = 1.0;
  /// One projection bank + offsets shared by all levels (levels differ only
  /// in cell width, like virtual rehashing).
  std::unique_ptr<lsh::ProjectionBank> bank_;  // l*k directions
  std::vector<double> offsets_;                // l*k uniform offsets in [0,w)
  /// tables_[level * l + table]
  std::vector<Table> tables_;
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_E2LSH_H_
