#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/float_matrix.h"
#include "util/top_k_heap.h"

namespace perfbench {

/// The rows, held-out queries and exact fp32 top-k every workload shares.
struct Dataset {
  dblsh::FloatMatrix base;     ///< rows the program indexes (ids 0..n)
  dblsh::FloatMatrix queries;  ///< held out from the generated cloud
  std::vector<std::vector<dblsh::Neighbor>> truth;  ///< exact top-k per query
};

/// Sizes of the generated data; the defaults are the benchmark's.
struct DataShape {
  size_t rows = 100000;
  size_t queries = 1000;
  size_t k = 10;
};

/// Generates the SIFT10M stand-in of PaperDatasetProfiles (dim 128, a
/// 64-cluster Gaussian mixture, spread 30, stddev 2) from `seed`, holds
/// out `shape.queries` rows as queries and computes their exact top-k over
/// the remaining `shape.rows` rows. Same seed, same bytes.
Dataset MakeDataset(uint64_t seed, const DataShape& shape = {});

/// `count` vectors for writes: base rows picked by `seed` plus small
/// Gaussian noise, so inserted rows land inside the clusters.
dblsh::FloatMatrix MakeWriteRows(const dblsh::FloatMatrix& base, size_t count,
                                 uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
