#include "data.h"

#include <stdexcept>

#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "util/random.h"

namespace perfbench {

using dblsh::FloatMatrix;

Dataset MakeDataset(uint64_t seed, const DataShape& shape) {
  dblsh::DatasetProfile profile;
  bool found = false;
  for (const auto& p : dblsh::PaperDatasetProfiles(1.0)) {
    if (p.name == "SIFT10M") {
      profile = p;
      found = true;
    }
  }
  if (!found) throw std::runtime_error("SIFT10M profile missing");
  profile.n = shape.rows + shape.queries;
  const FloatMatrix cloud = dblsh::GenerateProfile(profile, seed);
  Dataset data;
  dblsh::SplitQueries(cloud, shape.queries, seed ^ 0x51F7ULL, &data.base,
                      &data.queries);
  data.truth = dblsh::ComputeGroundTruth(data.base, data.queries, shape.k);
  return data;
}

FloatMatrix MakeWriteRows(const FloatMatrix& base, size_t count,
                          uint64_t seed) {
  dblsh::Rng rng(seed ^ 0x77A1ULL);
  FloatMatrix rows(count, base.cols());
  for (size_t i = 0; i < count; ++i) {
    const float* src = base.row(rng.UniformInt(base.rows()));
    float* dst = rows.mutable_row(i);
    for (size_t j = 0; j < base.cols(); ++j) {
      dst[j] = src[j] + static_cast<float>(rng.Gaussian(0.0, 0.5));
    }
  }
  return rows;
}

}  // namespace perfbench
