#include "core/verify.h"

#include <algorithm>
#include <cmath>

#include "dataset/vector_store.h"
#include "simd/simd.h"

namespace dblsh {
namespace {

/// The calling thread's active per-query filter (see ScopedQueryFilter).
/// Plain thread_local pointer: install/lookup are a handful of instructions
/// on the query hot path and need no synchronization.
thread_local const QueryFilter* g_active_filter = nullptr;

}  // namespace

ScopedQueryFilter::ScopedQueryFilter(const QueryFilter* filter)
    : previous_(g_active_filter) {
  g_active_filter = (filter != nullptr && !filter->empty()) ? filter : nullptr;
}

ScopedQueryFilter::~ScopedQueryFilter() { g_active_filter = previous_; }

const QueryFilter* ScopedQueryFilter::Active() { return g_active_filter; }

CandidateVerifier::CandidateVerifier(const float* query,
                                     const FloatMatrix* data, TopKHeap* heap,
                                     QueryStats* stats)
    : query_(query),
      data_(data),
      heap_(heap),
      stats_(stats),
      filter_(ScopedQueryFilter::Active()) {
  // Quantized storage: when a quantized VectorStore manages this matrix's
  // payload (the matrix is then a metadata shell), distances come from the
  // store's prepared-query scoring instead of the raw fp32 kernels. Every
  // other semantic — tombstones, filters, budget, dist_bound, chunk
  // boundaries, push order — is identical, which is how quantization
  // reaches all 12 methods with zero per-method code.
  const VectorStore* store = data->store();
  if (store != nullptr && store->quantized()) {
    store_ = store;
    store->PrepareQuery(query, &prepared_);
  }
}

VerifyResult VerifyCandidates(const float* query, const FloatMatrix& data,
                              const uint32_t* ids, size_t n,
                              const VerifyOptions& options, TopKHeap* heap,
                              QueryStats* stats) {
  return CandidateVerifier(query, &data, heap, stats).Verify(ids, n, options);
}

VerifyResult CandidateVerifier::Verify(const uint32_t* ids, size_t n,
                                       const VerifyOptions& options) {
  // Chunk sizing: with an early exit armed, small chunks bound the wasted
  // distance computations past the exit point; when no exit can fire (full
  // scans — LinearScan, ground truth) larger chunks keep the batch
  // kernel's prefetch lookahead warm across more rows.
  constexpr size_t kExitChunk = 32;
  constexpr size_t kScanChunk = 256;
  const bool exit_possible = options.dist_bound >= 0.0 || options.budget < n;
  const size_t chunk = exit_possible ? kExitChunk : kScanChunk;
  float d2[kScanChunk];
  uint32_t kept[kScanChunk];
  VerifyResult result;
  const auto& kernels = simd::Active();
  const float* base = data_->data().data();
  const size_t dim = data_->cols();
  // Tombstoned rows and rows the thread's query filter rejects are
  // dropped before the distance kernel — a restrictive allow-list must not
  // pay SIMD work for candidates it will drop — and consume neither budget
  // nor candidates_verified. Survivors are compacted only when either can
  // drop something, so the static unfiltered path scores `ids` (or the
  // contiguous rows) in place, byte-for-byte the historical loop.
  const bool tombstones = data_->has_tombstones();
  const bool compact = tombstones || filter_ != nullptr;
  for (size_t off = 0; off < n && !result.exited; off += chunk) {
    size_t m = std::min(chunk, n - off);
    const uint32_t* batch = ids != nullptr ? ids + off : nullptr;
    if (compact) {
      // Tombstones are tested first so a dead row never counts as a
      // filtered *live* candidate (result.filtered feeds coverage-based
      // termination against live_rows()).
      size_t live = 0;
      for (size_t j = 0; j < m; ++j) {
        const uint32_t id =
            batch != nullptr ? batch[j] : static_cast<uint32_t>(off + j);
        if (tombstones && data_->IsDeleted(id)) continue;
        if (filter_ != nullptr && !filter_->Admits(id)) {
          ++result.filtered;
          continue;
        }
        kept[live++] = id;
      }
      if (live == 0) continue;
      batch = kept;
      m = live;
    }
    if (store_ != nullptr) {
      store_->ScoreBatch(prepared_.data(), off, batch, m, d2);
    } else if (batch != nullptr) {
      kernels.l2_squared_batch(query_, base, dim, batch, m, d2);
    } else {
      // Contiguous rows: advance the base pointer instead of materializing
      // sequential ids.
      kernels.l2_squared_batch(query_, base + off * dim, dim, nullptr, m,
                               d2);
    }
    for (size_t j = 0; j < m; ++j) {
      const uint32_t id =
          batch != nullptr ? batch[j] : static_cast<uint32_t>(off + j);
      heap_->Push(std::sqrt(d2[j]), id);
      ++result.pushed;
      if (stats_ != nullptr) ++stats_->candidates_verified;
      if (result.pushed >= options.budget ||
          (options.dist_bound >= 0.0 && heap_->Full() &&
           heap_->Threshold() <= options.dist_bound)) {
        result.exited = true;
        break;  // drop the rest of the chunk, exactly like the old loops
      }
    }
  }
  return result;
}

bool CandidateVerifier::Flush() {
  const size_t pending = buffered_;
  buffered_ = 0;
  if (pending == 0 || done_) return done_;
  if (budget_ <= verified_) {
    // Budget already consumed (possible only if a caller lowers it
    // mid-query): exit without verifying anything further.
    done_ = true;
    return true;
  }
  VerifyOptions options;
  options.budget = budget_ - verified_;
  options.dist_bound = dist_bound_;
  const VerifyResult result = Verify(buffer_, pending, options);
  verified_ += result.pushed;
  filtered_ += result.filtered;
  if (result.exited) done_ = true;
  return done_;
}

}  // namespace dblsh
