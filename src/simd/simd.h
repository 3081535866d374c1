#ifndef DBLSH_SIMD_SIMD_H_
#define DBLSH_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace dblsh {
namespace simd {

/// The instruction-set tiers a distance kernel can be compiled for. Which
/// tiers exist in the binary is a compile-time fact (per-TU -mavx2 /
/// -mavx512f, see CMakeLists); which tier runs is decided once at startup
/// from CPUID and can be overridden via ForceKernel() or the DBLSH_SIMD
/// environment variable (scalar | avx2 | avx512 | auto).
enum class KernelKind : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// One dispatch table entry: every member computes over `dim`-length float
/// vectors with no alignment requirement.
struct DistanceKernels {
  /// Squared Euclidean distance ||a - b||^2.
  float (*l2_squared)(const float* a, const float* b, size_t dim);

  /// Inner product <a, b>.
  float (*dot)(const float* a, const float* b, size_t dim);

  /// One-to-many batch: out[i] = ||query - base_row(ids[i])||^2 for
  /// i in [0, n), where base is a row-major matrix whose row r starts at
  /// `base + r * dim`. `ids == nullptr` means rows 0..n-1 of `base` (the
  /// contiguous-scan case). Rows ahead of the current candidate are
  /// software-prefetched, which is where the batch entry point beats n
  /// calls of `l2_squared` on index-emitted (random-order) candidates.
  void (*l2_squared_batch)(const float* query, const float* base, size_t dim,
                           const uint32_t* ids, size_t n, float* out);

  /// SQ8 hot-path score between a prepared query and one u8 code row:
  /// sum_d (prep[d] - scale[d] * code[d])^2. `prep` is the per-query
  /// precomputation scale[d] * quantized_query[d] (Sq8Store::PrepareQuery
  /// builds it); expressing both sides in code space cancels the
  /// per-dimension offsets, so scanning a row touches dim *bytes* instead
  /// of dim floats — the 4x bandwidth saving quantized storage exists for.
  float (*sq8_score)(const float* prep, const float* scale,
                     const uint8_t* code, size_t dim);

  /// One-to-many sq8_score: out[i] = score of row ids[i] (or row i when
  /// `ids == nullptr`), where row r's codes start at `codes + r * dim`.
  /// Software-prefetched like l2_squared_batch.
  void (*sq8_score_batch)(const float* prep, const float* scale,
                          const uint8_t* codes, size_t dim,
                          const uint32_t* ids, size_t n, float* out);

  /// SQ8 exact re-rank distance between the raw fp32 query and one u8 row
  /// decoded on the fly: sum_d (query[d] - (offset[d] + scale[d] *
  /// code[d]))^2. No query quantization error — the final top-k ordering
  /// under quantized storage comes from this kernel.
  float (*sq8_l2_asym)(const float* query, const float* offset,
                       const float* scale, const uint8_t* code, size_t dim);

  /// PQ ADC hot-path score between a per-query lookup table and one
  /// m-byte code row: sum_j lut[j * 256 + code[j]]. `lut` is the m x 256
  /// table of squared sub-distances PqStore::PrepareQuery computes once
  /// per query, so scanning a row is m table adds over m *bytes* — the
  /// bandwidth/compression win product quantization exists for. All three
  /// tiers share one canonical summation order (see ScalarPqAdc) and
  /// return bit-identical floats.
  float (*pq_adc)(const float* lut, const uint8_t* code, size_t m);

  /// One-to-many pq_adc: out[i] = score of row ids[i] (or row i when
  /// `ids == nullptr`), where row r's codes start at `codes + r * m`.
  /// Software-prefetched like the other batch entry points.
  void (*pq_adc_batch)(const float* lut, const uint8_t* codes, size_t m,
                       const uint32_t* ids, size_t n, float* out);

  /// R*-tree leaf test over n <= 64 consecutive points, point s being the
  /// `dim` floats at `points + s * dim`: bit s of the result is set iff
  /// rtree::box::ContainsPoint(lo, hi, point s, dim), the inclusive
  /// window [lo, hi]. Bits n..63 are zero. Every tier gives the same mask,
  /// NaN and signed zeros included (ordered compares, as the scalar `<` and
  /// `>`), and reads no float past point n-1 (vector tails are masked).
  uint64_t (*points_in_window)(const float* lo, const float* hi,
                               const float* points, size_t dim, size_t n);

  /// R*-tree inner-node test over n <= 64 consecutive boxes, box s being
  /// the `2 * dim` floats at `boxes + s * 2 * dim` (its `dim` lows, then
  /// its `dim` highs): bit s is set iff rtree::box::Intersects(lo, hi, box
  /// s's lows, box s's highs, dim). Same exactness and bounds as
  /// points_in_window.
  uint64_t (*boxes_meeting_window)(const float* lo, const float* hi,
                                   const float* boxes, size_t dim, size_t n);

  KernelKind kind;
  const char* name;
};

/// The dispatch table selected for this process. First use probes CPUID
/// (and the DBLSH_SIMD override); subsequent calls are a single relaxed
/// atomic load. Thread-safe; the returned reference points at static
/// storage and never dangles.
const DistanceKernels& Active();

/// True when `kind` is both compiled into this binary and supported by the
/// running CPU. Thread-safe, read-only.
bool Supported(KernelKind kind);

/// Pins the active kernel process-wide, e.g. to cross-check variants in
/// tests or benches, or to take an apples-to-apples scalar baseline.
/// Fails with InvalidArgument when `kind` is not Supported(), leaving the
/// previous selection in place. Safe to call concurrently with queries
/// (the switch is atomic), but a query already mid-verification finishes
/// on the tier it started with; don't interleave pinning with timed runs.
Status ForceKernel(KernelKind kind);

/// Reverts ForceKernel() pinning to the startup selection: the best
/// CPUID-supported tier, still honoring a DBLSH_SIMD environment override
/// if one is set (a process-wide operator choice outlives programmatic
/// pinning).
void UseAutoKernel();

/// Human-readable tier name ("scalar", "avx2", "avx512").
const char* KernelName(KernelKind kind);

}  // namespace simd
}  // namespace dblsh

#endif  // DBLSH_SIMD_SIMD_H_
