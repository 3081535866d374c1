#include "baselines/pm_lsh.h"

#include "core/index_factory.h"
#include <algorithm>
#include <cmath>

#include "core/verify.h"
#include "util/distance.h"

namespace dblsh {

PmLsh::PmLsh(PmLshParams params) : params_(params) {}

Status PmLsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("PmLsh::Build requires a non-empty dataset");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.m == 0) {
    return Status::InvalidArgument("PM-LSH needs at least one projection");
  }
  data_ = data;
  bank_ = std::make_unique<lsh::ProjectionBank>(params_.m, data->cols(),
                                                params_.seed);
  projected_ = bank_->ProjectDataset(*data);
  tree_ = std::make_unique<kdtree::KdTree>(&projected_);
  return Status::OK();
}

std::vector<Neighbor> PmLsh::Query(const float* query, size_t k,
                                   QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();

  std::vector<float> proj_q(params_.m);
  bank_->ProjectAll(query, proj_q.data());

  const size_t budget =
      std::max<size_t>(100, static_cast<size_t>(params_.beta *
                                                static_cast<double>(n))) +
      k;
  const double stop_scale = params_.t_factor * std::sqrt(double(params_.m));

  TopKHeap heap(k);
  // The projected-distance stop test below reads the heap threshold before
  // every candidate, so verification is immediate (batch of one) — the
  // shared helper still supplies the SIMD one-to-one kernel.
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);
  kdtree::KdTree::NnCursor cursor(tree_.get(), proj_q.data());
  if (stats != nullptr) {
    ++stats->window_queries;
    ++stats->rounds;
  }
  Neighbor projected_neighbor;
  while (cursor.Next(&projected_neighbor)) {
    if (stats != nullptr) ++stats->points_accessed;
    // Early stop: the projected radius already certifies the current top-k
    // (projected distances concentrate around sqrt(m) * true distance).
    if (heap.Full() &&
        projected_neighbor.dist > stop_scale * heap.Threshold()) {
      break;
    }
    if (verifier.VerifyNow(projected_neighbor.id)) break;
  }
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterPmLsh, "PM-LSH",
    "PM-LSH (Zheng et al., PVLDB 2020): 2-stable projection to m dims + "
    "exact NN search in the projected space",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      PmLshParams params;
      SpecReader reader(spec);
      reader.Key("c", &params.c);
      reader.Key("m", &params.m);
      reader.Key("beta", &params.beta);
      reader.Key("t_factor", &params.t_factor);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<PmLsh>(params);
      return index;
    });

}  // namespace dblsh
