#include "baselines/srs.h"

#include "core/index_factory.h"
#include <algorithm>
#include <cmath>

#include "core/verify.h"
#include "util/distance.h"

namespace dblsh {

Srs::Srs(SrsParams params) : params_(params) {}

Status Srs::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("Srs::Build requires a non-empty dataset");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.m == 0) {
    return Status::InvalidArgument("SRS needs at least one projection");
  }
  data_ = data;
  bank_ = std::make_unique<lsh::ProjectionBank>(params_.m, data->cols(),
                                                params_.seed);
  projected_ = bank_->ProjectDataset(*data);
  tree_ = std::make_unique<kdtree::KdTree>(&projected_);
  tree_rows_ = projected_.rows();
  delta_ids_.clear();
  in_delta_.clear();
  return Status::OK();
}

Status Srs::Insert(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Insert() requires a built index");
  }
  if (id >= data_->rows() || data_->IsDeleted(id)) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): not a live row of the backing dataset (insert the vector with "
        "FloatMatrix::InsertRow first)");
  }
  if (id > projected_.rows()) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): appended ids must arrive densely (next expected id is " +
        std::to_string(projected_.rows()) + ")");
  }
  std::vector<float> proj(params_.m);
  bank_->ProjectAll(data_->row(id), proj.data());
  if (id == projected_.rows()) {
    projected_.AppendRow(proj.data(), params_.m);
  } else {
    // Recycled slot. A slot below tree_rows_ stays tree-resident (the
    // cursor reads projections live, so it surfaces the new vector —
    // possibly later than a fresh tree would, but never dropped); a slot
    // at or above tree_rows_ was a delta point and rejoins the delta below.
    std::copy(proj.begin(), proj.end(), projected_.mutable_row(id));
  }
  if (id >= tree_rows_) {
    if (in_delta_.size() <= id) in_delta_.resize(id + 1, 0);
    if (in_delta_[id] == 0) {
      in_delta_[id] = 1;
      delta_ids_.push_back(id);
    }
  }
  return Status::OK();
}

Status Srs::Erase(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Erase() requires a built index");
  }
  if (id >= projected_.rows()) {
    return Status::NotFound("Erase(" + std::to_string(id) +
                            "): id was never indexed");
  }
  if (id < in_delta_.size() && in_delta_[id] != 0) {
    in_delta_[id] = 0;
    delta_ids_.erase(std::find(delta_ids_.begin(), delta_ids_.end(), id));
  }
  // Tree-resident ids cannot be cut out of the bulk-built kd-tree; the
  // dataset tombstone (EraseRow) keeps them out of every result.
  return Status::OK();
}

std::vector<Neighbor> Srs::Query(const float* query, size_t k,
                                 QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();

  std::vector<float> proj_q(params_.m);
  bank_->ProjectAll(query, proj_q.data());

  const size_t budget =
      std::max<size_t>(100, static_cast<size_t>(params_.beta *
                                                static_cast<double>(n))) +
      k;
  const double stop_scale =
      std::sqrt(params_.threshold * static_cast<double>(params_.m));

  TopKHeap heap(k);
  // Per-candidate threshold reads, as in PM-LSH: verify immediately so the
  // stop test always sees an up-to-date k-th distance.
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);
  // The delta region (points inserted after Build) is tiny relative to the
  // tree and has no projected-space ordering, so it is verified up front —
  // the cursor below only ever emits tree-resident ids, so there is no
  // overlap to dedup.
  for (uint32_t id : delta_ids_) {
    if (stats != nullptr) ++stats->points_accessed;
    if (verifier.Offer(id)) return heap.TakeSorted();
  }
  if (verifier.Flush()) return heap.TakeSorted();
  kdtree::KdTree::NnCursor cursor(tree_.get(), proj_q.data());
  if (stats != nullptr) {
    ++stats->window_queries;
    ++stats->rounds;
  }
  Neighbor projected_neighbor;
  while (cursor.Next(&projected_neighbor)) {
    if (stats != nullptr) ++stats->points_accessed;
    if (heap.Full() &&
        projected_neighbor.dist > stop_scale * heap.Threshold()) {
      break;  // SRS early-stop test on the projected/true distance ratio
    }
    if (verifier.VerifyNow(projected_neighbor.id)) break;
  }
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterSrs, "SRS",
    "SRS (Sun et al., PVLDB 2014): tiny-index incremental NN search in "
    "an m ~ 6 dim projection",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      SrsParams params;
      SpecReader reader(spec);
      reader.Key("c", &params.c);
      reader.Key("m", &params.m);
      reader.Key("beta", &params.beta);
      reader.Key("threshold", &params.threshold);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<Srs>(params);
      return index;
    });

}  // namespace dblsh
