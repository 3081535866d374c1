#include "baselines/lsb_forest.h"

#include "core/index_factory.h"
#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

#include "core/query_marks.h"
#include "core/verify.h"
#include "dataset/ground_truth.h"
#include "util/distance.h"

namespace dblsh {

LsbForest::LsbForest(LsbForestParams params) : params_(params) {}

uint64_t LsbForest::ZOrderCode(const float* hashed) const {
  // Interleave the `k` quantized components MSB-first so that a longer
  // common prefix means a smaller (finer) merged bucket.
  uint64_t code = 0;
  const uint64_t max_value = (uint64_t{1} << params_.bits) - 1;
  for (size_t b = params_.bits; b-- > 0;) {
    for (size_t j = 0; j < params_.k; ++j) {
      const auto v = static_cast<uint64_t>(
          std::clamp<double>(hashed[j], 0.0, double(max_value)));
      code = (code << 1) | ((v >> b) & 1);
    }
  }
  return code;
}

Status LsbForest::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument(
        "LsbForest::Build requires a non-empty dataset");
  }
  if (params_.k * params_.bits > 64) {
    return Status::InvalidArgument("k * bits must fit in a 64-bit Z-code");
  }
  data_ = data;
  const size_t n = data->rows();
  const double w =
      params_.w0 * EstimateNnDistance(*data, params_.seed ^ 0x15B0ULL);

  families_.clear();
  sorted_.clear();
  shifts_.clear();
  families_.reserve(params_.l);
  sorted_.resize(params_.l);
  shifts_.resize(params_.l);

  std::vector<int64_t> raw(params_.k);
  std::vector<float> shifted(params_.k);
  for (size_t tree = 0; tree < params_.l; ++tree) {
    families_.push_back(std::make_unique<lsh::StaticHashFamily>(
        params_.k, data->cols(), w, params_.seed + tree * 7919));
    // First pass: per-component minima so codes are non-negative.
    auto& shift = shifts_[tree];
    shift.assign(params_.k, std::numeric_limits<int64_t>::max());
    std::vector<int64_t> all_hashes(n * params_.k);
    for (size_t i = 0; i < n; ++i) {
      families_[tree]->HashAll(data->row(i), raw.data());
      for (size_t j = 0; j < params_.k; ++j) {
        all_hashes[i * params_.k + j] = raw[j];
        shift[j] = std::min(shift[j], raw[j]);
      }
    }
    auto& entries = sorted_[tree];
    entries.resize(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < params_.k; ++j) {
        shifted[j] = static_cast<float>(all_hashes[i * params_.k + j] -
                                        shift[j]);
      }
      entries[i] = {ZOrderCode(shifted.data()), static_cast<uint32_t>(i)};
    }
    std::sort(entries.begin(), entries.end());
  }

  return Status::OK();
}

std::vector<Neighbor> LsbForest::Query(const float* query, size_t k,
                                       QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();
  QueryMarks marks = QueryMarks::Begin(n);

  // Query Z-code and a bidirectional cursor pair per tree.
  std::vector<uint64_t> qcodes(params_.l);
  std::vector<ptrdiff_t> up(params_.l), down(params_.l);
  std::vector<int64_t> raw(params_.k);
  std::vector<float> shifted(params_.k);
  for (size_t tree = 0; tree < params_.l; ++tree) {
    families_[tree]->HashAll(query, raw.data());
    for (size_t j = 0; j < params_.k; ++j) {
      shifted[j] = static_cast<float>(raw[j] - shifts_[tree][j]);
    }
    qcodes[tree] = ZOrderCode(shifted.data());
    const auto& entries = sorted_[tree];
    const auto pos = std::lower_bound(
        entries.begin(), entries.end(),
        std::make_pair(qcodes[tree], uint32_t{0}));
    up[tree] = pos - entries.begin();
    down[tree] = up[tree] - 1;
    if (stats != nullptr) ++stats->window_queries;
  }

  // Longest common Z-order prefix between query and entry codes; longer
  // means the entry shares a finer merged bucket with the query.
  auto llcp = [](uint64_t a, uint64_t b) -> int {
    return (a == b) ? 64 : std::countl_zero(a ^ b);
  };
  // Max-heap over cursor heads by LLCP: always expand the most promising
  // tree next, which realizes the paper's synchronized bucket-merging walk.
  struct Head {
    int prefix;
    uint32_t tree;
    bool upward;
  };
  struct HeadLess {
    bool operator()(const Head& a, const Head& b) const {
      return a.prefix < b.prefix;
    }
  };
  std::priority_queue<Head, std::vector<Head>, HeadLess> heads;
  auto push_head = [&](size_t tree, bool upward) {
    const auto& entries = sorted_[tree];
    const ptrdiff_t pos = upward ? up[tree] : down[tree];
    if (pos < 0 || pos >= static_cast<ptrdiff_t>(entries.size())) return;
    heads.push({llcp(qcodes[tree], entries[pos].first),
                static_cast<uint32_t>(tree), upward});
  };
  for (size_t tree = 0; tree < params_.l; ++tree) {
    push_head(tree, true);
    push_head(tree, false);
  }

  const size_t budget =
      std::max<size_t>(100, static_cast<size_t>(params_.beta *
                                                static_cast<double>(n))) +
      k;
  TopKHeap heap(k);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);
  while (!heads.empty() && !verifier.done()) {
    const Head head = heads.top();
    heads.pop();
    const auto& entries = sorted_[head.tree];
    const ptrdiff_t pos = head.upward ? up[head.tree] : down[head.tree];
    const uint32_t id = entries[pos].second;
    if (stats != nullptr) ++stats->points_accessed;
    if (marks.Visit(id)) verifier.Offer(id);
    if (head.upward) {
      ++up[head.tree];
    } else {
      --down[head.tree];
    }
    push_head(head.tree, head.upward);
  }
  verifier.Flush();
  if (stats != nullptr) stats->rounds = 1;
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterLsbForest, "LSB-Forest",
    "LSB-Forest (Tao et al., SIGMOD 2009): Z-order-coded LSB-trees with "
    "bucket-merging search",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      LsbForestParams params;
      SpecReader reader(spec);
      reader.Key("l", &params.l);
      reader.Key("k", &params.k);
      reader.Key("bits", &params.bits);
      reader.Key("w0", &params.w0);
      reader.Key("beta", &params.beta);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<LsbForest>(params);
      return index;
    });

}  // namespace dblsh
