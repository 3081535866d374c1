#include "baselines/lccs_lsh.h"

#include "core/index_factory.h"
#include <algorithm>
#include <numeric>

#include "core/query_marks.h"
#include "core/verify.h"
#include "dataset/ground_truth.h"
#include "util/distance.h"

namespace dblsh {

namespace {

uint64_t RotL(uint64_t x, unsigned s) {
  return s == 0 ? x : (x << s) | (x >> (64 - s));
}

}  // namespace

LccsLsh::LccsLsh(LccsLshParams params) : params_(params) {}

uint64_t LccsLsh::CodeOf(const float* point) const {
  // One 4-bit symbol per hash function, MSB-first so a longer common prefix
  // of the rotated code means more consecutive hash collisions.
  uint64_t code = 0;
  for (size_t f = 0; f < num_symbols_; ++f) {
    const auto symbol =
        static_cast<uint64_t>(family_->Hash(f, point)) & 0xFULL;
    code = (code << 4) | symbol;
  }
  return code;
}

Status LccsLsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument(
        "LccsLsh::Build requires a non-empty dataset");
  }
  if (params_.m < 4 || params_.m > 64) {
    return Status::InvalidArgument("code length m must be in [4, 64]");
  }
  data_ = data;
  const size_t n = data->rows();
  num_symbols_ = params_.m / 4;
  if (params_.scan_per_shift == 0) {
    params_.scan_per_shift = params_.probes / num_symbols_ + 1;
  }

  const double w =
      params_.w_scale * EstimateNnDistance(*data, params_.seed ^ 0x1CC5ULL);
  family_ = std::make_unique<lsh::StaticHashFamily>(num_symbols_,
                                                    data->cols(), w,
                                                    params_.seed);
  codes_.resize(n);
  for (size_t i = 0; i < n; ++i) codes_[i] = CodeOf(data->row(i));

  shift_order_.assign(num_symbols_, {});
  for (size_t s = 0; s < num_symbols_; ++s) {
    auto& order = shift_order_[s];
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    const auto rot = static_cast<unsigned>(4 * s);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const uint64_t ra = RotL(codes_[a], rot);
      const uint64_t rb = RotL(codes_[b], rot);
      if (ra != rb) return ra < rb;
      return a < b;
    });
  }

  return Status::OK();
}

std::vector<Neighbor> LccsLsh::Query(const float* query, size_t k,
                                     QueryStats* stats) const {
  if (k == 0 || data_ == nullptr) return {};
  const size_t n = data_->rows();
  QueryMarks marks = QueryMarks::Begin(n);

  const uint64_t qcode = CodeOf(query);
  const size_t budget = params_.probes + k;
  TopKHeap heap(k);
  CandidateVerifier verifier(query, data_, &heap, stats);
  verifier.set_budget(budget);

  auto verify = [&](uint32_t id) -> bool {
    if (stats != nullptr) ++stats->points_accessed;
    if (!marks.Visit(id)) return false;
    return verifier.Offer(id);
  };

  for (size_t s = 0; s < num_symbols_ && !verifier.done(); ++s) {
    if (stats != nullptr) ++stats->window_queries;
    const auto rot = static_cast<unsigned>(4 * s);
    const uint64_t rq = RotL(qcode, rot);
    const auto& order = shift_order_[s];
    // Binary search the rotated code in this shift's sorted order.
    const auto pos = std::lower_bound(
        order.begin(), order.end(), rq, [&](uint32_t id, uint64_t key) {
          return RotL(codes_[id], rot) < key;
        });
    ptrdiff_t upper = pos - order.begin();
    ptrdiff_t lower = upper - 1;
    // Neighbors in this order share the longest common prefix of the
    // rotated code, i.e. the longest co-substring starting at symbol s.
    for (size_t step = 0; step < params_.scan_per_shift; ++step) {
      if (upper < static_cast<ptrdiff_t>(n)) {
        if (verify(order[static_cast<size_t>(upper)])) break;
        ++upper;
      }
      if (lower >= 0) {
        if (verify(order[static_cast<size_t>(lower)])) break;
        --lower;
      }
      if (upper >= static_cast<ptrdiff_t>(n) && lower < 0) break;
    }
    verifier.Flush();  // shift boundary: settle the budget exit
  }
  verifier.Flush();
  if (stats != nullptr) stats->rounds = 1;
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterLccsLsh, "LCCS-LSH",
    "LCCS-LSH (Lei et al., SIGMOD 2020): circular shift array over "
    "packed E2LSH symbol codes",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      LccsLshParams params;
      SpecReader reader(spec);
      reader.Key("m", &params.m);
      reader.Key("probes", &params.probes);
      reader.Key("scan_per_shift", &params.scan_per_shift);
      reader.Key("w_scale", &params.w_scale);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<LccsLsh>(params);
      return index;
    });

}  // namespace dblsh
