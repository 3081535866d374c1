#ifndef DBLSH_BASELINES_MULTIPROBE_LSH_H_
#define DBLSH_BASELINES_MULTIPROBE_LSH_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/ann_index.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for Multi-Probe LSH (Lv et al., VLDB 2007), the related-work
/// method (paper Sec. II-B) that reduces E2LSH's table count by probing
/// *multiple* nearby buckets per table instead of one.
struct MultiProbeParams {
  size_t k = 8;          ///< hash functions per table
  size_t l = 4;          ///< tables (fewer than E2LSH needs)
  size_t probes = 32;    ///< buckets probed per table (incl. the home one)
  double w0 = 0.0;       ///< bucket width; 0 = auto (scaled to NN distance)
  double beta = 0.05;    ///< verification budget fraction of n
  uint64_t seed = 42;
};

/// Multi-Probe LSH: one static (K,L) hash-table index at a single bucket
/// width; a query probes its home bucket and then the neighboring buckets
/// most likely to hold near points, in the order of a query-derived probing
/// sequence (perturbing one coordinate at a time toward its nearer cell
/// boundary first — the first-order approximation of Lv et al.'s sequence).
/// Trades E2LSH's space for extra probes, at the cost of the formal
/// guarantee — exactly how the paper positions it.
class MultiProbeLsh : public AnnIndex {
 public:
  explicit MultiProbeLsh(MultiProbeParams params = MultiProbeParams());

  std::string Name() const override { return "MultiProbe"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return params_.k * params_.l; }

 private:
  using Bucket = std::vector<uint32_t>;
  using Table = std::unordered_map<uint64_t, Bucket>;

  uint64_t KeyFromCells(size_t table, const int64_t* cells) const;

  MultiProbeParams params_;
  double w_ = 1.0;
  std::unique_ptr<lsh::ProjectionBank> bank_;  // l*k directions
  std::vector<double> offsets_;                // l*k offsets in [0, w)
  std::vector<Table> tables_;                  // one per table
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_MULTIPROBE_LSH_H_
