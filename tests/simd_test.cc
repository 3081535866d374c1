#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/index_factory.h"
#include "core/verify.h"
#include "dataset/synthetic.h"
#include "simd/simd.h"
#include "util/random.h"

namespace dblsh {
namespace {

using simd::KernelKind;

/// Every tier the CPU can run; kScalar is always present.
std::vector<KernelKind> SupportedKinds() {
  std::vector<KernelKind> kinds = {KernelKind::kScalar};
  if (simd::Supported(KernelKind::kAvx2)) kinds.push_back(KernelKind::kAvx2);
  if (simd::Supported(KernelKind::kAvx512)) {
    kinds.push_back(KernelKind::kAvx512);
  }
  return kinds;
}

/// Pins a kernel for the duration of one test and always restores auto
/// dispatch, so test order can't leak a forced tier.
class SimdKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::UseAutoKernel(); }
};

double ReferenceL2Squared(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

double ReferenceDot(const float* a, const float* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

// Property test: every compiled-and-runnable dispatch tier agrees with a
// double-precision reference on odd dimensions (scalar tails, masked
// AVX-512 tails) and on unaligned pointers (all loads are loadu).
TEST_F(SimdKernelTest, AllTiersMatchDoubleReferenceAcrossDimsAndAlignment) {
  const size_t dims[] = {1, 3, 7, 17, 100, 960};
  Rng rng(20260731);
  for (const size_t dim : dims) {
    // Over-allocate so we can offset by one float to force misalignment.
    std::vector<float> a_buf(dim + 1), b_buf(dim + 1);
    for (auto& v : a_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : b_buf) v = static_cast<float>(rng.Gaussian());
    for (const size_t offset : {size_t{0}, size_t{1}}) {
      const float* a = a_buf.data() + offset;
      const float* b = b_buf.data() + offset;
      const double ref_l2 = ReferenceL2Squared(a, b, dim);
      const double ref_dot = ReferenceDot(a, b, dim);
      // Relative tolerance scaled to float accumulation error over `dim`
      // terms of O(1) magnitude.
      const double tol = 1e-4 * std::max(1.0, static_cast<double>(dim));
      for (const KernelKind kind : SupportedKinds()) {
        SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                     " dim=" + std::to_string(dim) +
                     " offset=" + std::to_string(offset));
        ASSERT_TRUE(simd::ForceKernel(kind).ok());
        const auto& kernels = simd::Active();
        EXPECT_EQ(kernels.kind, kind);
        EXPECT_NEAR(kernels.l2_squared(a, b, dim), ref_l2,
                    tol * std::max(1.0, std::abs(ref_l2)));
        EXPECT_NEAR(kernels.dot(a, b, dim), ref_dot,
                    tol * std::max(1.0, std::abs(ref_dot)));
      }
    }
  }
}

// The one-to-many batch entry point must agree bit-for-bit with n calls of
// the same tier's one-to-one kernel, for both an id list and the
// contiguous (ids == nullptr) form.
TEST_F(SimdKernelTest, BatchMatchesOneToOnePerTier) {
  const size_t dims[] = {1, 3, 7, 17, 100, 960};
  const size_t n = 57;  // not a multiple of any chunk size
  Rng rng(42);
  for (const size_t dim : dims) {
    std::vector<float> base(n * dim), query(dim);
    for (auto& v : base) v = static_cast<float>(rng.Gaussian());
    for (auto& v : query) v = static_cast<float>(rng.Gaussian());
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>((i * 13) % n);  // shuffled, in-range
    }
    for (const KernelKind kind : SupportedKinds()) {
      SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                   " dim=" + std::to_string(dim));
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      const auto& kernels = simd::Active();
      std::vector<float> out(n, -1.f);
      kernels.l2_squared_batch(query.data(), base.data(), dim, ids.data(), n,
                               out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.l2_squared(query.data(),
                                             base.data() + ids[i] * dim, dim))
            << "id " << ids[i];
      }
      kernels.l2_squared_batch(query.data(), base.data(), dim, nullptr, n,
                               out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.l2_squared(query.data(),
                                             base.data() + i * dim, dim))
            << "row " << i;
      }
    }
  }
}

double ReferenceSq8Score(const float* prep, const float* scale,
                         const uint8_t* code, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(prep[i]) -
                     static_cast<double>(scale[i]) * double(code[i]);
    acc += d * d;
  }
  return acc;
}

double ReferenceSq8L2Asym(const float* query, const float* offset,
                          const float* scale, const uint8_t* code,
                          size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d =
        static_cast<double>(query[i]) -
        (static_cast<double>(offset[i]) +
         static_cast<double>(scale[i]) * double(code[i]));
    acc += d * d;
  }
  return acc;
}

// The u8 asymmetric kernels across every runnable tier, odd dims (scalar
// tails, masked/partial vector tails) and unaligned inputs, against
// double-precision references.
TEST_F(SimdKernelTest, Sq8TiersMatchDoubleReferenceAcrossDimsAndAlignment) {
  const size_t dims[] = {1, 3, 7, 17, 31, 100, 960};
  Rng rng(20260808);
  for (const size_t dim : dims) {
    std::vector<float> prep_buf(dim + 1), scale_buf(dim + 1),
        offset_buf(dim + 1), query_buf(dim + 1);
    std::vector<uint8_t> code_buf(dim + 1);
    for (auto& v : prep_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : scale_buf) {
      v = 0.01f + std::fabs(static_cast<float>(rng.Gaussian()));
    }
    for (auto& v : offset_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : query_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : code_buf) {
      v = static_cast<uint8_t>(rng.UniformInt(256));
    }
    for (const size_t offset : {size_t{0}, size_t{1}}) {
      const float* prep = prep_buf.data() + offset;
      const float* scale = scale_buf.data() + offset;
      const float* off = offset_buf.data() + offset;
      const float* query = query_buf.data() + offset;
      const uint8_t* code = code_buf.data() + offset;
      const double ref_score = ReferenceSq8Score(prep, scale, code, dim);
      const double ref_asym = ReferenceSq8L2Asym(query, off, scale, code, dim);
      // Codes reach 255, so per-term magnitudes are O(scale * 255);
      // scale the tolerance to the reference value.
      const double tol = 1e-4 * std::max(1.0, static_cast<double>(dim));
      for (const KernelKind kind : SupportedKinds()) {
        SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                     " dim=" + std::to_string(dim) +
                     " offset=" + std::to_string(offset));
        ASSERT_TRUE(simd::ForceKernel(kind).ok());
        const auto& kernels = simd::Active();
        EXPECT_NEAR(kernels.sq8_score(prep, scale, code, dim), ref_score,
                    tol * std::max(1.0, ref_score));
        EXPECT_NEAR(kernels.sq8_l2_asym(query, off, scale, code, dim),
                    ref_asym, tol * std::max(1.0, ref_asym));
      }
    }
  }
}

// sq8_score_batch must agree bit-for-bit with n calls of the same tier's
// sq8_score, for both the id-list and the contiguous (ids == nullptr)
// forms.
TEST_F(SimdKernelTest, Sq8BatchMatchesOneToOnePerTier) {
  const size_t dims[] = {1, 3, 7, 17, 100, 960};
  const size_t n = 57;  // not a multiple of any chunk size
  Rng rng(4242);
  for (const size_t dim : dims) {
    std::vector<uint8_t> codes(n * dim);
    std::vector<float> prep(dim), scale(dim);
    for (auto& v : codes) v = static_cast<uint8_t>(rng.UniformInt(256));
    for (auto& v : prep) v = static_cast<float>(rng.Gaussian());
    for (auto& v : scale) {
      v = 0.01f + std::fabs(static_cast<float>(rng.Gaussian()));
    }
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>((i * 13) % n);  // shuffled, in-range
    }
    for (const KernelKind kind : SupportedKinds()) {
      SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                   " dim=" + std::to_string(dim));
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      const auto& kernels = simd::Active();
      std::vector<float> out(n, -1.f);
      kernels.sq8_score_batch(prep.data(), scale.data(), codes.data(), dim,
                              ids.data(), n, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.sq8_score(prep.data(), scale.data(),
                                            codes.data() + ids[i] * dim, dim))
            << "id " << ids[i];
      }
      kernels.sq8_score_batch(prep.data(), scale.data(), codes.data(), dim,
                              nullptr, n, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], kernels.sq8_score(prep.data(), scale.data(),
                                            codes.data() + i * dim, dim))
            << "row " << i;
      }
    }
  }
}

double ReferencePqAdc(const float* lut, const uint8_t* code, size_t m) {
  double acc = 0.0;
  for (size_t j = 0; j < m; ++j) {
    acc += static_cast<double>(lut[j * 256 + code[j]]);
  }
  return acc;
}

// The PQ ADC kernel across every runnable tier, odd subspace counts
// (scalar tails after the 8-wide gather loop) and unaligned LUT pointers,
// against a double-precision reference. Additionally every tier must
// return the *bit-identical* float: the three implementations share one
// canonical 8-bin summation order precisely so PQ search results cannot
// depend on the host's instruction set.
TEST_F(SimdKernelTest, PqAdcTiersMatchDoubleReferenceAndEachOther) {
  const size_t ms[] = {1, 3, 5, 7, 8, 9, 16, 17, 31, 64};
  Rng rng(20260809);
  for (const size_t m : ms) {
    std::vector<float> lut_buf(m * 256 + 1);
    std::vector<uint8_t> code_buf(m + 1);
    for (auto& v : lut_buf) v = static_cast<float>(rng.Gaussian());
    for (auto& v : code_buf) v = static_cast<uint8_t>(rng.UniformInt(256));
    for (const size_t offset : {size_t{0}, size_t{1}}) {
      const float* lut = lut_buf.data() + offset;
      const uint8_t* code = code_buf.data() + offset;
      const double ref = ReferencePqAdc(lut, code, m);
      const double tol = 1e-5 * std::max(1.0, static_cast<double>(m));
      float first = 0.f;
      bool have_first = false;
      for (const KernelKind kind : SupportedKinds()) {
        SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                     " m=" + std::to_string(m) +
                     " offset=" + std::to_string(offset));
        ASSERT_TRUE(simd::ForceKernel(kind).ok());
        const float got = simd::Active().pq_adc(lut, code, m);
        EXPECT_NEAR(got, ref, tol * std::max(1.0, std::abs(ref)));
        if (!have_first) {
          first = got;
          have_first = true;
        } else {
          EXPECT_EQ(got, first);  // bit-identical across tiers
        }
      }
    }
  }
}

// pq_adc_batch must agree bit-for-bit with n calls of the same tier's
// pq_adc, for both the id-list and the contiguous (ids == nullptr) forms
// — including odd n (the AVX-512 batch processes rows in pairs).
TEST_F(SimdKernelTest, PqAdcBatchMatchesOneToOnePerTier) {
  const size_t ms[] = {1, 3, 8, 16, 17, 64};
  const size_t n = 57;  // odd: exercises the 2-row batch's tail
  Rng rng(424242);
  for (const size_t m : ms) {
    std::vector<float> lut(m * 256);
    std::vector<uint8_t> codes(n * m);
    for (auto& v : lut) v = static_cast<float>(rng.Gaussian());
    for (auto& v : codes) v = static_cast<uint8_t>(rng.UniformInt(256));
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>((i * 13) % n);  // shuffled, in-range
    }
    for (const KernelKind kind : SupportedKinds()) {
      SCOPED_TRACE(std::string(simd::KernelName(kind)) +
                   " m=" + std::to_string(m));
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      const auto& kernels = simd::Active();
      std::vector<float> out(n, -1.f);
      kernels.pq_adc_batch(lut.data(), codes.data(), m, ids.data(), n,
                           out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i],
                  kernels.pq_adc(lut.data(), codes.data() + ids[i] * m, m))
            << "id " << ids[i];
      }
      kernels.pq_adc_batch(lut.data(), codes.data(), m, nullptr, n,
                           out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i],
                  kernels.pq_adc(lut.data(), codes.data() + i * m, m))
            << "row " << i;
      }
    }
  }
}

/// A coordinate for the window-kernel test against the bounds [lo, hi]:
/// an exact tie with either bound, the bound's float neighbour outside, a
/// zero of either sign, an infinity, NaN, or a plain value below, above or
/// inside.
float WindowProbeValue(Rng& rng, float lo, float hi) {
  const float inf = std::numeric_limits<float>::infinity();
  switch (rng.UniformInt(16)) {
    case 0: return lo;
    case 1: return hi;
    case 2: return std::nextafter(lo, -inf);
    case 3: return std::nextafter(hi, inf);
    case 4: return 0.0f;
    case 5: return -0.0f;
    case 6: return rng.UniformInt(2) ? inf : -inf;
    case 7: return std::numeric_limits<float>::quiet_NaN();
    case 8:
    case 9: return lo - static_cast<float>(rng.Uniform(0.01, 3.0));
    case 10:
    case 11: return hi + static_cast<float>(rng.Uniform(0.01, 3.0));
    default: {
      // NaN or infinite bounds make this NaN: one more NaN case.
      const auto t = static_cast<float>(rng.NextDouble());
      return lo + t * (hi - lo);
    }
  }
}

// The R*-tree window kernels return the scalar tier's mask on every tier,
// for every entry width from 1 to 40 floats (all vector tails, one and
// several full chunks) and every count from 0 to 64. Each case's entries
// end exactly at the end of their own allocation, so a vector tail that
// reads past the last entry is a heap overflow under ASan.
TEST_F(SimdKernelTest, WindowMasksMatchScalarOnEveryTier) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<const simd::DistanceKernels*> tiers;
  for (const KernelKind kind : SupportedKinds()) {
    ASSERT_TRUE(simd::ForceKernel(kind).ok());
    tiers.push_back(&simd::Active());
  }
  Rng rng(20261019);
  size_t point_hits = 0, box_hits = 0;
  for (size_t dim = 1; dim <= 40; ++dim) {
    for (size_t n = 0; n <= 64; ++n) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " n=" + std::to_string(n));
      // The window: a proper interval per axis, with now and then a
      // signed-zero, infinite or NaN bound.
      const auto lo = std::make_unique<float[]>(dim);
      const auto hi = std::make_unique<float[]>(dim);
      for (size_t j = 0; j < dim; ++j) {
        lo[j] = static_cast<float>(rng.Uniform(-2.0, 0.0));
        hi[j] = static_cast<float>(rng.Uniform(0.0, 2.0));
        switch (rng.UniformInt(24)) {
          case 0: lo[j] = -0.0f; hi[j] = 0.0f; break;
          case 1: lo[j] = 0.0f; hi[j] = -0.0f; break;
          case 2: lo[j] = -inf; break;
          case 3: hi[j] = inf; break;
          case 4: (rng.UniformInt(2) ? lo[j] : hi[j]) = nan; break;
          default: break;
        }
      }
      // Half the entries keep every axis inside, so that hits occur at
      // every width; the rest draw about two axes from the probe values.
      const auto points = std::make_unique<float[]>(n * dim);
      const auto boxes = std::make_unique<float[]>(n * 2 * dim);
      for (size_t s = 0; s < n; ++s) {
        const bool plain = rng.UniformInt(2) == 0;
        float* point = points.get() + s * dim;
        float* box_lo = boxes.get() + s * 2 * dim;
        float* box_hi = box_lo + dim;
        for (size_t j = 0; j < dim; ++j) {
          if (plain || rng.UniformInt(dim) >= 2) {
            const auto t = static_cast<float>(rng.NextDouble());
            point[j] = lo[j] + t * (hi[j] - lo[j]);
            box_lo[j] = point[j] - static_cast<float>(rng.Uniform(0.0, 3.0));
            box_hi[j] = point[j] + static_cast<float>(rng.Uniform(0.0, 3.0));
          } else {
            point[j] = WindowProbeValue(rng, lo[j], hi[j]);
            // Boxes touching the window (box_hi == lo, box_lo == hi), just
            // missing it, straddling it, or with special bounds.
            box_lo[j] = WindowProbeValue(rng, lo[j], hi[j]);
            box_hi[j] = WindowProbeValue(rng, lo[j], hi[j]);
          }
        }
      }
      const uint64_t want_points =
          tiers[0]->points_in_window(lo.get(), hi.get(), points.get(), dim, n);
      const uint64_t want_boxes = tiers[0]->boxes_meeting_window(
          lo.get(), hi.get(), boxes.get(), dim, n);
      point_hits += static_cast<size_t>(std::popcount(want_points));
      box_hits += static_cast<size_t>(std::popcount(want_boxes));
      for (size_t t = 1; t < tiers.size(); ++t) {
        EXPECT_EQ(tiers[t]->points_in_window(lo.get(), hi.get(), points.get(),
                                             dim, n),
                  want_points)
            << tiers[t]->name;
        EXPECT_EQ(tiers[t]->boxes_meeting_window(lo.get(), hi.get(),
                                                 boxes.get(), dim, n),
                  want_boxes)
            << tiers[t]->name;
      }
    }
  }
  // Both outcomes are common: over an eighth of the entries hit, and over
  // an eighth miss.
  const size_t entries = 40 * (64 * 65 / 2);
  EXPECT_GT(point_hits, entries / 8);
  EXPECT_LT(point_hits, entries - entries / 8);
  EXPECT_GT(box_hits, entries / 8);
  EXPECT_LT(box_hits, entries - entries / 8);
}

TEST_F(SimdKernelTest, ForceKernelRejectsUnavailableTiers) {
  EXPECT_TRUE(simd::ForceKernel(KernelKind::kScalar).ok());
  if (!simd::Supported(KernelKind::kAvx512)) {
    EXPECT_FALSE(simd::ForceKernel(KernelKind::kAvx512).ok());
  }
  simd::UseAutoKernel();
  EXPECT_TRUE(simd::Supported(simd::Active().kind));
}

// VerifyCandidates must honor per-candidate early exits: the budget stops
// the pass at exactly the budgeted push even mid-chunk.
TEST_F(SimdKernelTest, VerifyCandidatesHonorsBudgetMidChunk) {
  const size_t n = 100, dim = 8;
  FloatMatrix data(n, dim);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      data.at(i, j) = static_cast<float>(rng.Gaussian());
    }
  }
  TopKHeap heap(5);
  QueryStats stats;
  VerifyOptions options;
  options.budget = 37;  // inside the second chunk
  const VerifyResult result = VerifyCandidates(
      data.row(0), data, /*ids=*/nullptr, n, options, &heap, &stats);
  EXPECT_TRUE(result.exited);
  EXPECT_EQ(result.pushed, 37u);
  EXPECT_EQ(stats.candidates_verified, 37u);
}

// Cross-kernel equivalence: each of the 12 registered methods must return
// the same neighbor ids (and distances up to float accumulation error)
// regardless of the dispatch tier. Build and query are repeated per tier so
// index construction (r0 estimation etc.) also runs through the kernels.
TEST_F(SimdKernelTest, AllMethodsReturnSameResultsAcrossTiers) {
  const FloatMatrix data =
      GenerateClustered({.n = 1200, .dim = 32, .clusters = 10, .seed = 77});
  FloatMatrix queries;
  for (size_t i = 0; i < 6; ++i) {
    queries.AppendRow(data.row(i * 199), data.cols());
  }
  const size_t k = 8;
  for (const std::string& name : IndexFactory::ListMethods()) {
    SCOPED_TRACE(name);
    std::vector<std::vector<std::vector<Neighbor>>> per_kind;
    for (const KernelKind kind : SupportedKinds()) {
      ASSERT_TRUE(simd::ForceKernel(kind).ok());
      auto made = IndexFactory::Make(name);
      ASSERT_TRUE(made.ok()) << made.status().ToString();
      ASSERT_TRUE(made.value()->Build(&data).ok());
      std::vector<std::vector<Neighbor>> results;
      for (size_t q = 0; q < queries.rows(); ++q) {
        results.push_back(made.value()->Query(queries.row(q), k));
      }
      per_kind.push_back(std::move(results));
    }
    for (size_t v = 1; v < per_kind.size(); ++v) {
      SCOPED_TRACE(std::string("tier ") +
                   simd::KernelName(SupportedKinds()[v]));
      for (size_t q = 0; q < queries.rows(); ++q) {
        ASSERT_EQ(per_kind[v][q].size(), per_kind[0][q].size())
            << "query " << q;
        for (size_t r = 0; r < per_kind[v][q].size(); ++r) {
          EXPECT_EQ(per_kind[v][q][r].id, per_kind[0][q][r].id)
              << "query " << q << " rank " << r;
          EXPECT_NEAR(per_kind[v][q][r].dist, per_kind[0][q][r].dist, 1e-3)
              << "query " << q << " rank " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dblsh
