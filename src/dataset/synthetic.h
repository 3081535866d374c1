#ifndef DBLSH_DATASET_SYNTHETIC_H_
#define DBLSH_DATASET_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/float_matrix.h"

namespace dblsh {

/// Synthetic workload generators standing in for the paper's public datasets
/// (SIFT, GIST, Audio, MNIST, ...). LSH behaviour is governed by the
/// distance distribution of the data — in particular relative contrast and
/// local intrinsic dimensionality — so the generators expose those knobs
/// directly: a Gaussian mixture with `clusters` components of spread
/// `cluster_stddev` embedded in a `dim`-dimensional space produces the
/// clustered, low-intrinsic-dimension geometry real descriptor datasets
/// exhibit, while `Uniform` produces the hard, high-contrast regime.

/// Parameters for the Gaussian-mixture ("clustered") generator.
struct ClusteredSpec {
  size_t n = 10000;           ///< number of points
  size_t dim = 64;            ///< ambient dimensionality
  size_t clusters = 20;       ///< mixture components
  double center_spread = 100.0;  ///< centers ~ U[0, center_spread)^dim
  double cluster_stddev = 2.0;   ///< per-coordinate point spread
  uint64_t seed = 7;
};

/// Gaussian-mixture cloud: the default stand-in for descriptor datasets.
FloatMatrix GenerateClustered(const ClusteredSpec& spec);

/// Points uniform in [0, side)^dim — worst-case "no structure" workload.
FloatMatrix GenerateUniform(size_t n, size_t dim, double side = 100.0,
                            uint64_t seed = 7);

/// Low intrinsic dimensionality: points live near a random
/// `intrinsic_dim`-dimensional affine subspace plus isotropic noise. Mimics
/// datasets like Trevi/NUS whose descriptors occupy a thin manifold.
FloatMatrix GenerateLowIntrinsicDim(size_t n, size_t dim,
                                    size_t intrinsic_dim, double noise = 0.5,
                                    uint64_t seed = 7);

/// A named stand-in profile for one of the paper's ten datasets (Table III),
/// with the cardinality scaled by `scale` (1.0 gives the laptop-scale
/// stand-in sizes of PaperDatasetProfiles, not the paper's raw sizes; see
/// docs/ARCHITECTURE.md, "Substitutions").
struct DatasetProfile {
  std::string name;    ///< paper dataset name, e.g. "Gist"
  size_t n;            ///< stand-in cardinality
  size_t dim;          ///< true paper dimensionality
  size_t clusters;     ///< mixture components used for the stand-in
  double center_spread;  ///< hardness knob: smaller spread -> more cluster
                         ///< overlap -> lower relative contrast (NUS-like)
  double cluster_stddev;
};

/// The ten Table III profiles at laptop scale. `scale` multiplies n.
std::vector<DatasetProfile> PaperDatasetProfiles(double scale = 1.0);

/// Materializes the stand-in dataset for a profile.
FloatMatrix GenerateProfile(const DatasetProfile& profile, uint64_t seed = 7);

/// Splits `data` into (dataset, queries) by removing `num_queries` random
/// rows, matching the paper's protocol ("randomly select 100 points as
/// queries and remove them from the datasets").
void SplitQueries(const FloatMatrix& data, size_t num_queries, uint64_t seed,
                  FloatMatrix* dataset, FloatMatrix* queries);

}  // namespace dblsh

#endif  // DBLSH_DATASET_SYNTHETIC_H_
