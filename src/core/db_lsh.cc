#include "core/db_lsh.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "dataset/ground_truth.h"
#include "util/distance.h"
#include "util/random.h"

namespace dblsh {
namespace {

/// Algorithm 1's candidate budget 2*t*L + extra, saturated at SIZE_MAX:
/// a t too large to count means no budget, never a wrapped small one.
size_t CandidateBudget(size_t t, size_t l, size_t extra) {
  size_t budget = 0;
  if (__builtin_mul_overflow(t, l, &budget) ||
      __builtin_mul_overflow(budget, size_t{2}, &budget) ||
      __builtin_add_overflow(budget, extra, &budget)) {
    return std::numeric_limits<size_t>::max();
  }
  return budget;
}

}  // namespace

DbLsh::DbLsh(DbLshParams params) : params_(params) {}

std::string DbLsh::Name() const {
  return params_.bucketing == BucketingMode::kDynamicQueryCentric ? "DB-LSH"
                                                                  : "FB-LSH";
}

Status DbLsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("DbLsh::Build requires a non-empty dataset");
  }
  // The range checks below cannot see a non-finite real (NaN fails every
  // comparison, infinity passes them), and Load refuses the file it saves.
  if (!std::isfinite(params_.c) || !std::isfinite(params_.w0) ||
      !std::isfinite(params_.r0) || !std::isfinite(params_.early_stop_slack)) {
    return Status::InvalidArgument(
        "c, w0, r0 and early_stop_slack must be finite");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.l == 0) {
    return Status::InvalidArgument("number of projected spaces l must be >= 1");
  }
  if (params_.early_stop_slack < 1.0) {
    return Status::InvalidArgument(
        "early_stop_slack must be >= 1 (1 = the paper's exact condition)");
  }
  const size_t n = data->rows();

  // Paper defaults (Sec. VI-A).
  if (params_.w0 <= 0.0) params_.w0 = 4.0 * params_.c * params_.c;
  if (params_.k == 0) params_.k = (n > 1000000) ? 12 : 10;
  // The projection bank holds l*k directions of dim floats each, in one
  // vector; its max_size also keeps 2*l below SIZE_MAX for the default t.
  DBLSH_RETURN_IF_ERROR(CheckBuildSize<float>(
      "projection bank l * k * dim", {params_.l, params_.k, data->cols()}));
  if (params_.t == 0) {
    // Default candidate budget 2tL ~ max(192, 4*sqrt(n)): grows sub-linearly
    // with n (the theory's budget is O(tL) = O(n^rho*)), which is what keeps
    // the measured query time sub-linear in the vary-n experiment while
    // sustaining ~90% recall on clustered data.
    const size_t budget = std::max<size_t>(
        192, static_cast<size_t>(4.0 * std::sqrt(static_cast<double>(n))));
    params_.t = std::max<size_t>(8, budget / (2 * params_.l));
  }
  // An under-estimated r0 only costs a few cheap empty rounds; an
  // over-estimate only widens the first window, so the sample NN distance is
  // divided by c^2 for safety.
  auto_r0_ = params_.r0 > 0.0
                 ? params_.r0
                 : std::max(1e-6, EstimateNnDistance(
                                      *data, params_.seed ^ 0x5EEDULL) /
                                      (params_.c * params_.c));

  data_ = data;
  bank_ = std::make_unique<lsh::ProjectionBank>(params_.l * params_.k,
                                                data->cols(), params_.seed);

  // Project the dataset in one pass over the rows into the L K-dimensional
  // spaces.
  const size_t k = params_.k;
  std::vector<FloatMatrix> spaces;
  spaces.reserve(params_.l);
  for (size_t i = 0; i < params_.l; ++i) spaces.emplace_back(n, k);
  {
    std::vector<float> proj(params_.l * k);
    for (size_t row = 0; row < n; ++row) {
      bank_->ProjectAll(data->row(row), proj.data());
      for (size_t i = 0; i < params_.l; ++i) {
        std::copy_n(proj.data() + i * k, k, spaces[i].mutable_row(row));
      }
    }
  }

  indexed_rows_ = n;
  if (params_.bulk_load) {
    DBLSH_RETURN_IF_ERROR(BulkLoadTrees(std::move(spaces)));
  } else {
    trees_.clear();
    trees_.reserve(params_.l);
    for (size_t i = 0; i < params_.l; ++i) {
      rtree::RStarTree& tree = trees_.emplace_back(k);
      for (uint32_t id = 0; id < n; ++id) {
        if (data->IsDeleted(id)) continue;
        DBLSH_RETURN_IF_ERROR(tree.Insert(id, spaces[i].row(id)));
      }
      spaces[i] = FloatMatrix();  // the tree holds its own copy
    }
  }

  // Fixed-grid bucketing uses uniform random cell offsets (the `b` of the
  // static family, Eq. 1) so boundary losses are unbiased across functions.
  grid_offsets_.assign(params_.l * params_.k, 0.f);
  if (params_.bucketing == BucketingMode::kFixedGrid) {
    Rng rng(params_.seed ^ 0x0FF5E7ULL);
    for (auto& b : grid_offsets_) {
      b = static_cast<float>(rng.NextDouble());  // fraction of cell width
    }
  }

  return Status::OK();
}

Status DbLsh::BulkLoadTrees(std::vector<FloatMatrix> spaces) {
  // Tombstoned slots stay out of the trees, so they can be recycled by
  // InsertRow + Insert later.
  std::vector<uint32_t> live;
  live.reserve(data_->live_rows());
  for (uint32_t id = 0; id < data_->rows(); ++id) {
    if (!data_->IsDeleted(id)) live.push_back(id);
  }
  trees_.clear();
  trees_.reserve(spaces.size());
  for (FloatMatrix& space : spaces) {
    DBLSH_RETURN_IF_ERROR(
        trees_.emplace_back(params_.k).BulkLoad(space, live));
    space = FloatMatrix();  // the tree holds its own copy
  }
  return Status::OK();
}

rtree::Rect DbLsh::MakeBucket(const float* proj_center, size_t tree_index,
                              double width) const {
  if (params_.bucketing == BucketingMode::kDynamicQueryCentric) {
    return rtree::Rect::Window(proj_center, params_.k, width);
  }
  // Fixed (query-oblivious) grid cell of side `width` containing the query's
  // projection: the FB-LSH ablation. Cells tile the space at offsets `b`
  // (Eq. 1), independent of the query, so near-boundary neighbors can be
  // cut off — the hash-boundary problem DB-LSH eliminates.
  rtree::Rect cell(params_.k);
  for (size_t j = 0; j < params_.k; ++j) {
    const double offset =
        grid_offsets_[tree_index * params_.k + j] * width;
    const auto base = static_cast<float>(
        std::floor((proj_center[j] - offset) / width) * width + offset);
    cell.lo(j) = base;
    cell.hi(j) = static_cast<float>(base + width);
  }
  return cell;
}

bool DbLsh::RunRound(const float* proj, double r,
                     CandidateVerifier* verifier, QueryMarks marks,
                     QueryStats* stats) const {
  const double width = params_.w0 * r;
  const double c = params_.c;

  // Algorithm 1's termination tests — candidate budget exhausted, or the
  // k-th best distance certifying a (r,c)-NN result (optionally relaxed by
  // the early-stop slack) — live inside the verifier and are evaluated per
  // candidate in arrival order, so batching through the SIMD kernel leaves
  // the terminating candidate (and thus the heap) unchanged.
  verifier->set_dist_bound(params_.early_stop_slack * c * r);

  for (size_t i = 0; i < params_.l; ++i) {
    const float* center = proj + i * params_.k;
    if (stats != nullptr) ++stats->window_queries;
    // Per-candidate dedup; unseen ids are fed to the batch verifier, which
    // reports when Algorithm 1 may terminate.
    rtree::RStarTree::WindowCursor cursor(&trees_[i],
                                          MakeBucket(center, i, width));
    uint32_t id = 0;
    while (cursor.Next(&id)) {
      if (stats != nullptr) ++stats->points_accessed;
      if (marks.Visit(id) && verifier->Offer(id)) return true;
    }
    if (verifier->Flush()) return true;  // window boundary: settle exits
  }
  // All L windows drained without termination: round reports "not done".
  // (If every live point has been consumed — pushed, or dropped by the
  // request's filter — there is nothing left to find. Counting filtered
  // drops matters: a restrictive filter keeps the heap from filling and
  // the budget from tripping, and without this exit the radius ladder
  // would run its full 256 rounds of ever-larger window scans.)
  return verifier->verified() + verifier->filtered() >= data_->live_rows();
}

std::vector<Neighbor> DbLsh::Query(const float* query, size_t k,
                                   QueryStats* stats) const {
  return QueryImpl(query, k, params_.t, auto_r0_, stats);
}

QueryResponse DbLsh::Search(const float* query,
                            const QueryRequest& request) const {
  QueryResponse response;
  const size_t t =
      request.candidate_budget > 0 ? request.candidate_budget : params_.t;
  const double r0 = request.r0 > 0.0 ? request.r0 : auto_r0_;
  ScopedQueryFilter filter_scope(&request.filter);
  response.neighbors = QueryImpl(query, request.k, t, r0, &response.stats);
  return response;
}

std::vector<Neighbor> DbLsh::QueryImpl(const float* query, size_t k, size_t t,
                                       double r0, QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};

  const QueryMarks marks = QueryMarks::Begin(data_->rows());
  // The projection does not depend on r: one per query serves every round.
  std::vector<float> proj(params_.l * params_.k);
  bank_->ProjectAll(query, proj.data());
  TopKHeap heap(k);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(CandidateBudget(t, params_.l, k));
  double r = r0;
  // The radius ladder r0, c*r0, c^2*r0, ... terminates via the Algorithm 1
  // conditions; the iteration cap only guards degenerate inputs (it allows
  // the window to outgrow any float data spread).
  for (size_t round = 0; round < 256; ++round) {
    if (stats != nullptr) ++stats->rounds;
    if (RunRound(proj.data(), r, &verifier, marks, stats)) break;
    r *= params_.c;
  }
  return heap.TakeSorted();
}

std::optional<Neighbor> DbLsh::RcNnQuery(const float* query, double r,
                                         QueryStats* stats) const {
  if (data_ == nullptr) return std::nullopt;
  const QueryMarks marks = QueryMarks::Begin(data_->rows());
  std::vector<float> proj(params_.l * params_.k);
  bank_->ProjectAll(query, proj.data());
  const size_t budget = CandidateBudget(params_.t, params_.l, 1);
  TopKHeap heap(1);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);
  if (stats != nullptr) ++stats->rounds;
  const bool done = RunRound(proj.data(), r, &verifier, marks, stats);
  if (!done && heap.Size() == 0) return std::nullopt;
  std::vector<Neighbor> best = heap.TakeSorted();
  if (best.empty()) return std::nullopt;
  // Definition 2: report a point only when it certifies the (r,c)-NN
  // answer (within c*r) or the candidate budget tripped (event E2 then
  // guarantees the point is within c*r with constant probability).
  if (best[0].dist <= params_.c * r || verifier.verified() >= budget) {
    return best[0];
  }
  return std::nullopt;
}

Status DbLsh::Insert(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Insert() requires a built index");
  }
  if (id >= data_->rows() || data_->IsDeleted(id)) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): not a live row of the backing dataset (insert the vector with "
        "FloatMatrix::InsertRow first)");
  }
  if (id > indexed_rows_) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): appended ids must arrive densely (next expected id is " +
        std::to_string(indexed_rows_) + ")");
  }
  // Checked before any tree changes, so a rejected insert changes none.
  if (std::any_of(trees_.begin(), trees_.end(), [id](const auto& tree) {
        return tree.Point(id) != nullptr;
      })) {
    return Status::InvalidArgument("Insert(" + std::to_string(id) +
                                   "): already indexed (Erase it first)");
  }
  std::vector<float> proj(params_.l * params_.k);
  bank_->ProjectAll(data_->row(id), proj.data());
  for (size_t i = 0; i < params_.l; ++i) {
    DBLSH_RETURN_IF_ERROR(
        trees_[i].Insert(id, proj.data() + i * params_.k));
  }
  if (id == indexed_rows_) ++indexed_rows_;
  return Status::OK();
}

Status DbLsh::Erase(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Erase() requires a built index");
  }
  for (size_t i = 0; i < params_.l; ++i) {
    DBLSH_RETURN_IF_ERROR(trees_[i].Remove(id));
  }
  return Status::OK();
}

size_t DbLsh::IndexEntries() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree.size();
  return total;
}

Result<DbLshParams> DbLshParamsFromSpec(const IndexFactory::Spec& spec,
                                        DbLshParams base) {
  SpecReader reader(spec);
  reader.Key("c", &base.c);
  reader.Key("w0", &base.w0);
  reader.Key("k", &base.k);
  reader.Key("l", &base.l);
  reader.Key("t", &base.t);
  reader.Key("r0", &base.r0);
  reader.Key("early_stop_slack", &base.early_stop_slack);
  reader.Key("seed", &base.seed);
  reader.Key("bulk_load", &base.bulk_load);
  DBLSH_RETURN_IF_ERROR(reader.Finish());
  return base;
}

DBLSH_REGISTER_INDEX(
    kRegisterDbLsh, "DB-LSH",
    "DB-LSH (Tian et al., ICDE 2022): dynamic query-centric bucketing over "
    "L R*-tree-indexed K-dim projected spaces",
    [](const IndexFactory::Spec& spec) -> Result<std::unique_ptr<AnnIndex>> {
      auto params = DbLshParamsFromSpec(spec, DbLshParams());
      if (!params.ok()) return params.status();
      std::unique_ptr<AnnIndex> index =
          std::make_unique<DbLsh>(params.value());
      return index;
    });

}  // namespace dblsh
