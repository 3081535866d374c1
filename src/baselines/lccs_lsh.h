#ifndef DBLSH_BASELINES_LCCS_LSH_H_
#define DBLSH_BASELINES_LCCS_LSH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ann_index.h"
#include "lsh/projection.h"

namespace dblsh {

/// Parameters for LCCS-LSH (Lei et al., SIGMOD 2020). Paper settings:
/// m = 64, #probes in {256, 512}.
struct LccsLshParams {
  size_t m = 64;         ///< code length in bits; consumed 4 bits per hash
                         ///< function (16 E2LSH symbols in one machine word)
  size_t probes = 2048;  ///< candidate verification budget (the paper's
                         ///< 256-512 are per-64-symbol codes; 16-symbol
                         ///< codes need proportionally more probes)
  /// Entries examined per circular shift in each direction around the
  /// query's position before moving to the next shift.
  size_t scan_per_shift = 0;  ///< 0 = auto (probes / #symbols + 1)
  /// E2LSH bucket width for the per-symbol hashes, in units of the sampled
  /// NN distance. Narrow buckets discriminate best here because the
  /// co-substring ranking only counts exact symbol matches.
  double w_scale = 2.0;
  uint64_t seed = 42;
};

/// LCCS-LSH: query-oblivious indexing with a dynamic *concatenating* search.
/// Every point receives a code of m/4 E2LSH symbols (bucket ids of
/// floor((a.o + b)/w) taken mod 16, packed 4 bits each into one 64-bit
/// word; the circular co-substring machinery is agnostic to the symbol
/// source — see docs/ARCHITECTURE.md, "Substitutions"). The index is a
/// Circular Shift Array: one sorted order of the dataset per symbol
/// rotation. A query binary-searches each order and scans outward; entries
/// adjacent to the query in order s share a long common substring of the
/// code starting at symbol s, so the union over shifts enumerates points by
/// decreasing longest circular co-substring length, which is the paper's
/// candidate ranking.
class LccsLsh : public AnnIndex {
 public:
  explicit LccsLsh(LccsLshParams params = LccsLshParams());

  std::string Name() const override { return "LCCS-LSH"; }
  Status Build(const FloatMatrix* data) override;
  std::vector<Neighbor> Query(const float* query, size_t k,
                              QueryStats* stats = nullptr) const override;
  size_t NumHashFunctions() const override { return num_symbols_; }

 private:
  uint64_t CodeOf(const float* point) const;

  LccsLshParams params_;
  size_t num_symbols_ = 16;  ///< m / 4 hash functions
  std::unique_ptr<lsh::StaticHashFamily> family_;
  std::vector<uint64_t> codes_;  // per point
  /// shift_order_[s] = point ids sorted by the code rotated left by s
  /// symbols (4s bits).
  std::vector<std::vector<uint32_t>> shift_order_;
};

}  // namespace dblsh

#endif  // DBLSH_BASELINES_LCCS_LSH_H_
