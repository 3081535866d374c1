#include "baselines/e2lsh.h"

#include "core/index_factory.h"
#include <algorithm>
#include <cmath>

#include "core/query_marks.h"
#include "core/verify.h"
#include "dataset/ground_truth.h"
#include "util/distance.h"
#include "util/random.h"

namespace dblsh {

namespace {

/// SplitMix64-style mixing to fold one bucket coordinate into the key.
uint64_t MixInto(uint64_t key, int64_t coordinate) {
  uint64_t z = key ^ (static_cast<uint64_t>(coordinate) +
                      0x9E3779B97F4A7C15ULL + (key << 6) + (key >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

E2Lsh::E2Lsh(E2LshParams params) : params_(params) {}

uint64_t E2Lsh::BucketKey(size_t level, size_t table,
                          const float* point) const {
  const double width =
      params_.w0 * r0_ * std::pow(params_.c, static_cast<double>(level));
  uint64_t key = level * 0x100000001B3ULL + table;
  for (size_t j = 0; j < params_.k; ++j) {
    const size_t f = table * params_.k + j;
    const double projected = bank_->Project(f, point) + offsets_[f];
    key = MixInto(key, static_cast<int64_t>(std::floor(projected / width)));
  }
  return key;
}

Status E2Lsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("E2Lsh::Build requires a non-empty dataset");
  }
  if (params_.c <= 1.0) {
    return Status::InvalidArgument("approximation ratio c must exceed 1");
  }
  if (params_.k == 0 || params_.l == 0 || params_.levels == 0) {
    return Status::InvalidArgument("k, l and levels must all be >= 1");
  }
  DBLSH_RETURN_IF_ERROR(CheckBuildSize<float>(
      "projection bank l * k * dim", {params_.l, params_.k, data->cols()}));
  DBLSH_RETURN_IF_ERROR(
      CheckBuildSize<Table>("tables levels * l", {params_.levels, params_.l}));
  data_ = data;
  const size_t n = data->rows();
  if (params_.w0 <= 0.0) params_.w0 = 4.0 * params_.c * params_.c;
  r0_ = EstimateNnDistance(*data, params_.seed ^ 0xE215ULL) /
        (params_.c * params_.c);

  bank_ = std::make_unique<lsh::ProjectionBank>(params_.l * params_.k,
                                                data->cols(), params_.seed);
  Rng rng(params_.seed ^ 0x0FF5ULL);
  offsets_.resize(params_.l * params_.k);
  // Offsets are drawn for the *largest* cell width and reused at every
  // level; since offsets only need to be uniform modulo the width, drawing
  // once per function suffices.
  const double max_width =
      params_.w0 * r0_ *
      std::pow(params_.c, static_cast<double>(params_.levels - 1));
  for (auto& b : offsets_) b = rng.Uniform(0.0, max_width);

  tables_.assign(params_.levels * params_.l, Table());
  for (size_t level = 0; level < params_.levels; ++level) {
    for (size_t table = 0; table < params_.l; ++table) {
      Table& t = tables_[level * params_.l + table];
      t.reserve(n / 4);
      for (uint32_t id = 0; id < n; ++id) {
        t[BucketKey(level, table, data->row(id))].push_back(id);
      }
    }
  }

  return Status::OK();
}

size_t E2Lsh::IndexEntries() const {
  size_t total = 0;
  for (const Table& t : tables_) {
    for (const auto& [key, bucket] : t) total += bucket.size();
  }
  return total;
}

std::vector<Neighbor> E2Lsh::Query(const float* query, size_t k,
                                   QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();
  QueryMarks marks = QueryMarks::Begin(n);

  const size_t budget =
      std::max<size_t>(100, static_cast<size_t>(params_.beta *
                                                static_cast<double>(n))) +
      k;
  TopKHeap heap(k);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);
  double r = r0_;
  for (size_t level = 0; level < params_.levels; ++level, r *= params_.c) {
    if (stats != nullptr) ++stats->rounds;
    verifier.set_dist_bound(params_.c * r);
    bool done = false;
    for (size_t table = 0; table < params_.l && !done; ++table) {
      if (stats != nullptr) ++stats->window_queries;
      const auto it = tables_[level * params_.l + table].find(
          BucketKey(level, table, query));
      if (it == tables_[level * params_.l + table].end()) continue;
      for (const uint32_t id : it->second) {
        if (stats != nullptr) ++stats->points_accessed;
        if (!marks.Visit(id)) continue;
        if (verifier.Offer(id)) {
          done = true;
          break;
        }
      }
      if (!done && verifier.Flush()) done = true;
    }
    if (done || verifier.verified() >= n) break;
  }
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterE2Lsh, "E2LSH",
    "E2LSH (Datar et al. 2004): static query-oblivious (K,L)-index with "
    "one bucket table suite per radius level",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      E2LshParams params;
      SpecReader reader(spec);
      reader.Key("c", &params.c);
      reader.Key("k", &params.k);
      reader.Key("l", &params.l);
      reader.Key("levels", &params.levels);
      reader.Key("w0", &params.w0);
      reader.Key("beta", &params.beta);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<E2Lsh>(params);
      return index;
    });

}  // namespace dblsh
