#include "baselines/r2lsh.h"

#include "core/index_factory.h"
#include <algorithm>
#include <cmath>
#include <queue>

#include "baselines/update_common.h"
#include "core/query_marks.h"
#include "core/verify.h"
#include "dataset/ground_truth.h"
#include "lsh/collision.h"
#include "util/distance.h"

namespace dblsh {

R2Lsh::R2Lsh(R2LshParams params) : params_(params) {}

Status R2Lsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("R2Lsh::Build requires a non-empty dataset");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.m < 2) {
    return Status::InvalidArgument("R2LSH needs at least one 2D space");
  }
  DBLSH_RETURN_IF_ERROR(CheckBuildSize<float>("projection bank m * dim",
                                              {params_.m, data->cols()}));
  params_.m -= params_.m % 2;  // pair up projections
  num_spaces_ = params_.m / 2;
  data_ = data;
  const size_t n = data->rows();

  const double c = params_.c;
  const double w_norm =
      std::sqrt(8.0 * c * c * std::log(c) / (c * c - 1.0));
  r_unit_ = EstimateNnDistance(*data, params_.seed ^ 0x5252ULL) / c;
  w_ = w_norm * r_unit_;

  if (params_.collision_fraction <= 0.0) {
    // In a 2D projected space the projections of two points at distance tau
    // differ by a 2D Gaussian with per-axis variance tau^2, so the disc
    // collision probability is Rayleigh: P(||diff|| <= s) =
    // 1 - exp(-s^2 / (2 tau^2)). The threshold sits midway between the
    // near (tau = 1) and far (tau = c) cases, mirroring QALSH's rule.
    const double s = w_norm / 2.0;
    const double p1 = 1.0 - std::exp(-s * s / 2.0);
    const double p2 = 1.0 - std::exp(-s * s / (2.0 * c * c));
    params_.collision_fraction = 0.5 * (p1 + p2);
  }
  collision_threshold_ = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(params_.collision_fraction *
                                       static_cast<double>(num_spaces_))));

  bank_ = std::make_unique<lsh::ProjectionBank>(params_.m, data->cols(),
                                                params_.seed);
  projected_ = bank_->ProjectDataset(*data);

  trees_.clear();
  trees_.reserve(num_spaces_);
  std::vector<bptree::BPlusTree::Entry> entries;
  entries.reserve(data->live_rows());
  for (size_t s = 0; s < num_spaces_; ++s) {
    entries.clear();
    // Live rows only, so a recycled slot cannot leave a stale duplicate
    // tree entry under its old projection (see Qalsh::Build).
    for (size_t i = 0; i < n; ++i) {
      if (data->IsDeleted(i)) continue;
      entries.push_back({projected_.at(i, 2 * s), static_cast<uint32_t>(i)});
    }
    trees_.emplace_back();
    DBLSH_RETURN_IF_ERROR(trees_.back().BulkLoad(entries));
  }

  return Status::OK();
}

Status R2Lsh::Insert(uint32_t id) {
  std::vector<float> proj;
  DBLSH_RETURN_IF_ERROR(
      ProjectRowForInsert(data_, bank_.get(), id, &projected_, &proj));
  for (size_t s = 0; s < num_spaces_; ++s) {
    trees_[s].Insert(projected_.at(id, 2 * s), id);
  }
  return Status::OK();
}

Status R2Lsh::Erase(uint32_t id) {
  DBLSH_RETURN_IF_ERROR(CheckEraseTarget(data_, projected_, id));
  for (size_t s = 0; s < num_spaces_; ++s) {
    DBLSH_RETURN_IF_ERROR(trees_[s].Erase(projected_.at(id, 2 * s), id));
  }
  return Status::OK();
}

std::vector<Neighbor> R2Lsh::Query(const float* query, size_t k,
                                   QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();
  QueryMarks marks = QueryMarks::Begin(n, /*count_collisions=*/true);

  std::vector<float> proj_q(params_.m);
  bank_->ProjectAll(query, proj_q.data());

  // Per space: a slab frontier on the first coordinate plus a min-heap of
  // fetched points keyed by their 2D projected distance, so disc admission
  // is incremental as the radius grows.
  struct Pending {
    float dist2d;
    uint32_t id;
  };
  struct PendingGreater {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.dist2d > b.dist2d;
    }
  };
  std::vector<bptree::BPlusTree::Iterator> right(num_spaces_),
      left(num_spaces_);
  std::vector<
      std::priority_queue<Pending, std::vector<Pending>, PendingGreater>>
      pending(num_spaces_);
  for (size_t s = 0; s < num_spaces_; ++s) {
    right[s] = trees_[s].LowerBound(proj_q[2 * s]);
    left[s] = trees_[s].UpperNeighborBelow(proj_q[2 * s]);
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

  auto verify = [&](uint32_t id) -> bool {
    if (marks.Collide(id) < collision_threshold_) return false;
    if (!marks.Visit(id)) return false;
    return verifier.Offer(id);
  };

  for (size_t round = 0; round < 64; ++round) {
    if (stats != nullptr) ++stats->rounds;
    const auto half = static_cast<float>(w_ * radius / 2.0);
    bool budget_hit = false;
    for (size_t s = 0; s < num_spaces_ && !budget_hit; ++s) {
      if (stats != nullptr) ++stats->window_queries;
      const float qx = proj_q[2 * s];
      const float qy = proj_q[2 * s + 1];
      auto push_pending = [&](uint32_t id) {
        const float dx = projected_.at(id, 2 * s) - qx;
        const float dy = projected_.at(id, 2 * s + 1) - qy;
        pending[s].push({std::sqrt(dx * dx + dy * dy), id});
        if (stats != nullptr) ++stats->points_accessed;
      };
      auto& r_it = right[s];
      while (r_it.Valid() && r_it.key() <= qx + half) {
        push_pending(r_it.id());
        r_it.Next();
      }
      auto& l_it = left[s];
      while (l_it.Valid() && l_it.key() >= qx - half) {
        push_pending(l_it.id());
        l_it.Prev();
      }
      // Admit every fetched point whose 2D distance is inside the disc.
      while (!pending[s].empty() && pending[s].top().dist2d <= half) {
        const uint32_t id = pending[s].top().id;
        pending[s].pop();
        if (verify(id)) {
          budget_hit = true;
          break;
        }
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
    kRegisterR2Lsh, "R2LSH",
    "R2LSH (Lu & Kudo, ICDE 2020): collision counting over "
    "two-dimensional projected spaces",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      R2LshParams params;
      SpecReader reader(spec);
      reader.Key("c", &params.c);
      reader.Key("m", &params.m);
      reader.Key("collision_fraction", &params.collision_fraction);
      reader.Key("beta", &params.beta);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<R2Lsh>(params);
      return index;
    });

}  // namespace dblsh
