#include "baselines/vhp.h"

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

Vhp::Vhp(VhpParams params) : params_(params) {}

Status Vhp::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("Vhp::Build requires a non-empty dataset");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.m == 0) {
    return Status::InvalidArgument("VHP needs at least one hash function");
  }
  if (params_.t0 < 1.0) {
    return Status::InvalidArgument("slack factor t0 must be >= 1");
  }
  data_ = data;
  const size_t n = data->rows();

  const double c = params_.c;
  const double w_norm =
      std::sqrt(8.0 * c * c * std::log(c) / (c * c - 1.0));
  r_unit_ = EstimateNnDistance(*data, params_.seed ^ 0x5653ULL) / c;
  // The virtual hypersphere widens each per-dimension window by t0.
  w_ = w_norm * r_unit_ * params_.t0;

  if (params_.collision_fraction <= 0.0) {
    // Widened windows make each collision weaker evidence, so the threshold
    // is reduced proportionally relative to QALSH's midpoint rule.
    const double p1 = lsh::CollisionProbQueryCentric(1.0, w_norm);
    const double p2 = lsh::CollisionProbQueryCentric(c, w_norm);
    params_.collision_fraction = 0.5 * (p1 + p2) / params_.t0;
  }
  collision_threshold_ = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(params_.collision_fraction *
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
    // Live rows only, so a recycled slot cannot leave a stale duplicate
    // tree entry under its old projection (see Qalsh::Build).
    for (size_t i = 0; i < n; ++i) {
      if (data->IsDeleted(i)) continue;
      entries.push_back({projected_.at(i, f), static_cast<uint32_t>(i)});
    }
    trees_.emplace_back();
    DBLSH_RETURN_IF_ERROR(trees_.back().BulkLoad(entries));
  }

  return Status::OK();
}

Status Vhp::Insert(uint32_t id) {
  std::vector<float> proj;
  DBLSH_RETURN_IF_ERROR(
      ProjectRowForInsert(data_, bank_.get(), id, &projected_, &proj));
  for (size_t f = 0; f < params_.m; ++f) {
    trees_[f].Insert(projected_.at(id, f), id);
  }
  return Status::OK();
}

Status Vhp::Erase(uint32_t id) {
  DBLSH_RETURN_IF_ERROR(CheckEraseTarget(data_, projected_, id));
  for (size_t f = 0; f < params_.m; ++f) {
    DBLSH_RETURN_IF_ERROR(trees_[f].Erase(projected_.at(id, f), id));
  }
  return Status::OK();
}

std::vector<Neighbor> Vhp::Query(const float* query, size_t k,
                                 QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();
  QueryMarks marks = QueryMarks::Begin(n, /*count_collisions=*/true);

  std::vector<float> proj_q(params_.m);
  bank_->ProjectAll(query, proj_q.data());

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
    const double half = w_ * radius / 2.0;
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
    kRegisterVhp, "VHP",
    "VHP (Lu et al., PVLDB 2020): virtual hypersphere partitioning with "
    "widened per-dimension windows",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      VhpParams params;
      SpecReader reader(spec);
      reader.Key("c", &params.c);
      reader.Key("m", &params.m);
      reader.Key("t0", &params.t0);
      reader.Key("collision_fraction", &params.collision_fraction);
      reader.Key("beta", &params.beta);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<Vhp>(params);
      return index;
    });

}  // namespace dblsh
