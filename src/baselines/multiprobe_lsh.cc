#include "baselines/multiprobe_lsh.h"

#include "core/index_factory.h"
#include <algorithm>
#include <cmath>
#include <queue>

#include "core/query_marks.h"
#include "core/verify.h"
#include "dataset/ground_truth.h"
#include "util/distance.h"
#include "util/random.h"

namespace dblsh {

namespace {

uint64_t MixInto(uint64_t key, int64_t coordinate) {
  uint64_t z = key ^ (static_cast<uint64_t>(coordinate) +
                      0x9E3779B97F4A7C15ULL + (key << 6) + (key >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

MultiProbeLsh::MultiProbeLsh(MultiProbeParams params) : params_(params) {}

uint64_t MultiProbeLsh::KeyFromCells(size_t table,
                                     const int64_t* cells) const {
  uint64_t key = table * 0x100000001B3ULL + 17;
  for (size_t j = 0; j < params_.k; ++j) key = MixInto(key, cells[j]);
  return key;
}

Status MultiProbeLsh::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument(
        "MultiProbeLsh::Build requires a non-empty dataset");
  }
  if (params_.k == 0 || params_.l == 0 || params_.probes == 0) {
    return Status::InvalidArgument("k, l and probes must all be >= 1");
  }
  DBLSH_RETURN_IF_ERROR(CheckBuildSize<float>(
      "projection bank l * k * dim", {params_.l, params_.k, data->cols()}));
  data_ = data;
  const size_t n = data->rows();
  if (params_.w0 <= 0.0) {
    // Bucket width ~ a few NN radii so the home bucket holds the local
    // neighborhood and perturbations cover boundary spillover.
    params_.w0 = 4.0 * EstimateNnDistance(*data, params_.seed ^ 0x3B0BULL);
  }
  w_ = params_.w0;

  bank_ = std::make_unique<lsh::ProjectionBank>(params_.l * params_.k,
                                                data->cols(), params_.seed);
  Rng rng(params_.seed ^ 0x0F25ULL);
  offsets_.resize(params_.l * params_.k);
  for (auto& b : offsets_) b = rng.Uniform(0.0, w_);

  tables_.assign(params_.l, Table());
  std::vector<int64_t> cells(params_.k);
  for (size_t table = 0; table < params_.l; ++table) {
    Table& t = tables_[table];
    t.reserve(n / 4);
    for (uint32_t id = 0; id < n; ++id) {
      for (size_t j = 0; j < params_.k; ++j) {
        const size_t f = table * params_.k + j;
        cells[j] = static_cast<int64_t>(
            std::floor((bank_->Project(f, data->row(id)) + offsets_[f]) /
                       w_));
      }
      t[KeyFromCells(table, cells.data())].push_back(id);
    }
  }

  return Status::OK();
}

std::vector<Neighbor> MultiProbeLsh::Query(const float* query, size_t k,
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

  auto verify_bucket = [&](const Table& table, uint64_t key) -> bool {
    const auto it = table.find(key);
    if (it == table.end()) return false;
    for (const uint32_t id : it->second) {
      if (stats != nullptr) ++stats->points_accessed;
      if (!marks.Visit(id)) continue;
      if (verifier.Offer(id)) return true;
    }
    return false;
  };

  // Per-table probing: home bucket first, then single-coordinate
  // perturbations ordered by the query's distance to that cell boundary
  // (the first-order probing sequence), then pairs, greedily by score.
  std::vector<int64_t> home(params_.k);
  struct Perturbation {
    double score;  // squared distance to the perturbed cell
    uint32_t mask_lo;  // coordinate index of the (last) perturbed dim
    int8_t dir;
  };
  for (size_t table = 0; table < params_.l; ++table) {
    if (stats != nullptr) ++stats->window_queries;
    std::vector<double> frac(params_.k);  // position within the cell [0,1)
    for (size_t j = 0; j < params_.k; ++j) {
      const size_t f = table * params_.k + j;
      const double v = (bank_->Project(f, query) + offsets_[f]) / w_;
      home[j] = static_cast<int64_t>(std::floor(v));
      frac[j] = v - std::floor(v);
    }
    if (verify_bucket(tables_[table], KeyFromCells(table, home.data()))) {
      break;
    }
    // Rank single-coordinate perturbations: moving to the cell below costs
    // frac^2, above costs (1-frac)^2 (in units of w^2).
    std::vector<Perturbation> moves;
    moves.reserve(2 * params_.k);
    for (size_t j = 0; j < params_.k; ++j) {
      moves.push_back({frac[j] * frac[j], static_cast<uint32_t>(j), -1});
      moves.push_back(
          {(1.0 - frac[j]) * (1.0 - frac[j]), static_cast<uint32_t>(j), 1});
    }
    std::sort(moves.begin(), moves.end(),
              [](const Perturbation& a, const Perturbation& b) {
                return a.score < b.score;
              });
    bool done = false;
    size_t probes_used = 1;
    std::vector<int64_t> cells = home;
    // Single perturbations in score order, then cheapest pairs.
    for (size_t i = 0; i < moves.size() && probes_used < params_.probes;
         ++i) {
      cells = home;
      cells[moves[i].mask_lo] += moves[i].dir;
      ++probes_used;
      if (verify_bucket(tables_[table], KeyFromCells(table, cells.data()))) {
        done = true;
        break;
      }
    }
    for (size_t i = 0; !done && i < moves.size(); ++i) {
      for (size_t j = i + 1;
           !done && j < moves.size() && probes_used < params_.probes; ++j) {
        if (moves[i].mask_lo == moves[j].mask_lo) continue;
        cells = home;
        cells[moves[i].mask_lo] += moves[i].dir;
        cells[moves[j].mask_lo] += moves[j].dir;
        ++probes_used;
        if (verify_bucket(tables_[table],
                          KeyFromCells(table, cells.data()))) {
          done = true;
        }
      }
      if (probes_used >= params_.probes) break;
    }
    if (done) break;
    if (verifier.Flush()) break;  // table boundary: settle the budget exit
  }
  verifier.Flush();
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterMultiProbeLsh, "MultiProbe",
    "Multi-Probe LSH (Lv et al., VLDB 2007): single (K,L) table suite "
    "probing nearby buckets per table",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      MultiProbeParams params;
      SpecReader reader(spec);
      reader.Key("k", &params.k);
      reader.Key("l", &params.l);
      reader.Key("probes", &params.probes);
      reader.Key("w0", &params.w0);
      reader.Key("beta", &params.beta);
      reader.Key("seed", &params.seed);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<MultiProbeLsh>(params);
      return index;
    });

}  // namespace dblsh
