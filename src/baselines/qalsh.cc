#include "baselines/qalsh.h"

#include "core/index_factory.h"
#include <algorithm>
#include <cmath>

#include "baselines/update_common.h"
#include "core/query_marks.h"
#include "core/verify.h"
#include "dataset/ground_truth.h"
#include "lsh/collision.h"
#include "util/distance.h"

namespace dblsh {

Qalsh::Qalsh(QalshParams params) : params_(params) {}

Status Qalsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("Qalsh::Build requires a non-empty dataset");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.m == 0) {
    return Status::InvalidArgument("QALSH needs at least one hash function");
  }
  data_ = data;
  const size_t n = data->rows();

  // Normalized base width per unit radius: QALSH's optimal
  // w* = sqrt(8 c^2 ln c / (c^2 - 1)), then scaled to the data's NN radius
  // so the virtual-rehashing ladder R = 1, c, c^2, ... operates in units of
  // the typical NN distance.
  const double c = params_.c;
  const double w_norm =
      std::sqrt(8.0 * c * c * std::log(c) / (c * c - 1.0));
  r_unit_ = EstimateNnDistance(*data, params_.seed ^ 0x5151ULL) / c;
  if (params_.w <= 0.0) params_.w = w_norm * r_unit_;

  if (params_.collision_fraction <= 0.0) {
    const double p1 = lsh::CollisionProbQueryCentric(1.0, w_norm);
    const double p2 = lsh::CollisionProbQueryCentric(c, w_norm);
    params_.collision_fraction = 0.5 * (p1 + p2);
  }
  collision_threshold_ = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(params_.collision_fraction *
                       static_cast<double>(params_.m))));

  bank_ = std::make_unique<lsh::ProjectionBank>(params_.m, data->cols(),
                                                params_.seed);
  projected_ = bank_->ProjectDataset(*data);

  trees_.clear();
  trees_.reserve(params_.m);
  std::vector<bptree::BPlusTree::Entry> entries;
  entries.reserve(data->live_rows());
  for (size_t f = 0; f < params_.m; ++f) {
    entries.clear();
    // Live rows only: a tombstoned slot must stay out of the trees so a
    // later InsertRow recycle + Insert(id) cannot create a stale duplicate
    // entry under the slot's old projection.
    for (size_t i = 0; i < n; ++i) {
      if (data->IsDeleted(i)) continue;
      entries.push_back({projected_.at(i, f), static_cast<uint32_t>(i)});
    }
    trees_.emplace_back();
    DBLSH_RETURN_IF_ERROR(trees_.back().BulkLoad(entries));
  }

  return Status::OK();
}

Status Qalsh::Insert(uint32_t id) {
  std::vector<float> proj;
  DBLSH_RETURN_IF_ERROR(
      ProjectRowForInsert(data_, bank_.get(), id, &projected_, &proj));
  for (size_t f = 0; f < params_.m; ++f) {
    trees_[f].Insert(projected_.at(id, f), id);
  }
  return Status::OK();
}

Status Qalsh::Erase(uint32_t id) {
  DBLSH_RETURN_IF_ERROR(CheckEraseTarget(data_, projected_, id));
  for (size_t f = 0; f < params_.m; ++f) {
    DBLSH_RETURN_IF_ERROR(trees_[f].Erase(projected_.at(id, f), id));
  }
  return Status::OK();
}

std::vector<Neighbor> Qalsh::Query(const float* query, size_t k,
                                   QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();
  QueryMarks marks = QueryMarks::Begin(n, /*count_collisions=*/true);

  std::vector<float> proj_q(params_.m);
  bank_->ProjectAll(query, proj_q.data());

  // Two frontier iterators per tree, expanding outward from h_i(q).
  std::vector<bptree::BPlusTree::Iterator> right(params_.m), left(params_.m);
  for (size_t f = 0; f < params_.m; ++f) {
    right[f] = trees_[f].LowerBound(proj_q[f]);
    left[f] = trees_[f].UpperNeighborBelow(proj_q[f]);
  }

  const size_t budget =
      std::max<size_t>(100, static_cast<size_t>(params_.beta *
                                                static_cast<double>(n))) +
      k;
  TopKHeap heap(k);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);
  // Real-space radius ladder; the per-dimension window at radius R has
  // half-width w*R / (2 * r_unit-normalization already folded into w).
  double radius = 1.0;
  const double c = params_.c;

  auto process = [&](uint32_t id) -> bool {
    if (stats != nullptr) ++stats->points_accessed;
    if (marks.Collide(id) < collision_threshold_) return false;
    if (!marks.Visit(id)) return false;
    return verifier.Offer(id);
  };

  for (size_t round = 0; round < 64; ++round) {
    if (stats != nullptr) ++stats->rounds;
    const double half = params_.w * radius / 2.0;
    bool budget_hit = false;
    for (size_t f = 0; f < params_.m && !budget_hit; ++f) {
      if (stats != nullptr) ++stats->window_queries;
      const double lo = proj_q[f] - half;
      const double hi = proj_q[f] + half;
      auto& r_it = right[f];
      while (r_it.Valid() && r_it.key() <= hi) {
        if (process(r_it.id())) {
          budget_hit = true;
          break;
        }
        r_it.Next();
      }
      auto& l_it = left[f];
      while (!budget_hit && l_it.Valid() && l_it.key() >= lo) {
        if (process(l_it.id())) {
          budget_hit = true;
          break;
        }
        l_it.Prev();
      }
      if (!budget_hit && verifier.Flush()) budget_hit = true;
    }
    if (budget_hit) break;
    if (heap.Full() && heap.Threshold() <= c * radius * r_unit_) break;
    if (verifier.verified() >= data_->live_rows()) break;
    radius *= c;
  }
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterQalsh, "QALSH",
    "QALSH (Huang et al., PVLDB 2015): query-aware 1-d buckets with "
    "collision counting over m B+-trees",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      QalshParams params;
      SpecReader reader(spec);
      reader.Key("c", &params.c);
      reader.Key("w", &params.w);
      reader.Key("m", &params.m);
      reader.Key("collision_fraction", &params.collision_fraction);
      reader.Key("beta", &params.beta);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<Qalsh>(params);
      return index;
    });

}  // namespace dblsh
