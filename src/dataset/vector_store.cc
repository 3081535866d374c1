#include "dataset/vector_store.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "simd/simd.h"

namespace dblsh {
namespace {

/// Tombstone bookkeeping bytes a matrix carries (approximate: the lazy
/// deleted_ bitmap is one byte per row once any tombstone exists, the
/// free-list four bytes per entry). Shared by every backend's stats.
size_t MatrixBookkeepingBytes(const FloatMatrix& m) {
  return (m.has_tombstones() ? m.rows() * sizeof(uint8_t) : 0) +
         m.free_slots().size() * sizeof(uint32_t);
}

/// The centroid of `cb` (PqStore::kCentroids x dsub floats) nearest to the
/// sub-vector `v`, the lowest index on ties: PQ's training assignment and
/// its encoding.
size_t NearestCentroid(const float* v, const float* cb, size_t dsub) {
  float best = std::numeric_limits<float>::max();
  size_t best_c = 0;
  for (size_t c = 0; c < PqStore::kCentroids; ++c) {
    const float* cent = cb + c * dsub;
    float dist = 0.0f;
    for (size_t d = 0; d < dsub; ++d) {
      const float diff = v[d] - cent[d];
      dist += diff * diff;
    }
    if (dist < best) {
      best = dist;
      best_c = c;
    }
  }
  return best_c;
}

}  // namespace

const char* StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kFp32:
      return "fp32";
    case StorageKind::kSq8:
      return "sq8";
    case StorageKind::kPq:
      return "pq";
  }
  return "unknown";
}

Result<StorageKind> ParseStorageKind(const std::string& name) {
  if (name == "fp32") return StorageKind::kFp32;
  if (name == "sq8") return StorageKind::kSq8;
  if (name == "pq") return StorageKind::kPq;
  return Status::InvalidArgument(
      "storage backend \"" + name + "\" is not recognized (expected fp32, "
      "sq8 or pq)");
}

StoreHeader VectorStore::header() const {
  StoreHeader h;
  h.kind = static_cast<uint32_t>(storage_kind());
  h.rows = matrix_->rows();
  h.dim = matrix_->cols();
  h.trained = trained();
  h.free_count = matrix_->free_slots().size();
  return h;
}

void VectorStore::Encode(std::vector<uint8_t>* out) const {
  EncodeParams(out);
  util::AppendBytes(out, payload());
  util::AppendBytes(out, util::BytesOf(matrix_->free_slots()));
}

VectorStore::VectorStore(std::unique_ptr<FloatMatrix> matrix)
    : matrix_(std::move(matrix)) {
  assert(matrix_ != nullptr);
  matrix_->BindStore(this);
}

VectorStore::~VectorStore() {
  // Unbind defensively: the matrix is destroyed with us, but a caller that
  // moved it out beforehand must not keep a dangling store pointer.
  if (matrix_ != nullptr) matrix_->BindStore(nullptr);
}

// ---------------------------------------------------------------- fp32 ----

Fp32Store::Fp32Store(std::unique_ptr<FloatMatrix> data)
    : VectorStore(std::move(data)) {}

size_t Fp32Store::bytes_per_vector() const {
  return matrix_->cols() * sizeof(float);
}

size_t Fp32Store::resident_bytes() const {
  return matrix_->data().capacity() * sizeof(float) +
         MatrixBookkeepingBytes(*matrix_);
}

uint32_t Fp32Store::InsertRow(const float* values, size_t len) {
  return matrix_->InsertRow(values, len);
}

size_t Fp32Store::TrimTombstonedTail() {
  return matrix_->TrimTombstonedTail();
}

void Fp32Store::DecodeRow(uint32_t id, float* out) const {
  const float* row = matrix_->row(id);
  std::copy(row, row + matrix_->cols(), out);
}

float Fp32Store::ExactL2Squared(const float* query, uint32_t id) const {
  return simd::Active().l2_squared(query, matrix_->row(id), matrix_->cols());
}

void Fp32Store::PrepareQuery(const float* query,
                             std::vector<float>* prep) const {
  prep->assign(query, query + matrix_->cols());
}

void Fp32Store::ScoreBatch(const float* prep, size_t start,
                           const uint32_t* ids, size_t n, float* out) const {
  const size_t dim = matrix_->cols();
  const float* base = matrix_->data().data();
  if (ids != nullptr) {
    simd::Active().l2_squared_batch(prep, base, dim, ids, n, out);
  } else {
    simd::Active().l2_squared_batch(prep, base + start * dim, dim, nullptr,
                                    n, out);
  }
}

FloatMatrix Fp32Store::DecodedCopy() const {
  return *matrix_;  // the copy drops the store binding by construction
}

void Fp32Store::EncodeParams(std::vector<uint8_t>* /*out*/) const {}

std::span<const uint8_t> Fp32Store::payload() const {
  return util::BytesOf(matrix_->data());
}

std::unique_ptr<VectorStore> Fp32Store::Reencode(
    std::unique_ptr<FloatMatrix> rows) const {
  return std::make_unique<Fp32Store>(std::move(rows));
}

// ----------------------------------------------------------- quantized ----

QuantizedStore::QuantizedStore(std::unique_ptr<FloatMatrix>&& matrix,
                               size_t code_width, bool trained)
    : VectorStore(std::move(matrix)),
      code_width_(code_width),
      trained_(trained) {}

QuantizedStore::QuantizedStore(std::unique_ptr<FloatMatrix> shell,
                               size_t code_width, std::vector<uint8_t> codes,
                               bool trained)
    : VectorStore(std::move(shell)),
      codes_(std::move(codes)),
      code_width_(code_width),
      trained_(trained) {
  assert(matrix_->payload_released());
  assert(codes_.size() == matrix_->rows() * code_width_);
}

void QuantizedStore::Seed() {
  if (matrix_->rows() > 0) {
    std::vector<uint32_t> ids(matrix_->rows());
    std::iota(ids.begin(), ids.end(), 0u);
    Train(*matrix_, ids);
    trained_ = true;
  }
  EncodeAndRelease();
}

void QuantizedStore::EncodeAndRelease() {
  codes_.resize(matrix_->rows() * code_width_);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    EncodeRow(matrix_->row(r), codes_.data() + r * code_width_);
  }
  matrix_->ReleasePayload();
}

size_t QuantizedStore::resident_bytes() const {
  return codes_.capacity() * sizeof(uint8_t) +
         matrix_->data().capacity() * sizeof(float) +  // 0 unless view held
         MatrixBookkeepingBytes(*matrix_);
}

uint32_t QuantizedStore::InsertRow(const float* values, size_t len) {
  assert(len == matrix_->cols());
  if (!trained_) {
    // An empty-seeded store trains on its first row, through the codec's
    // own Train on a one-row matrix.
    Train(FloatMatrix(1, len, std::vector<float>(values, values + len)), {0});
    trained_ = true;
  }
  const uint32_t id = matrix_->InsertRow(values, len);
  const size_t needed = (static_cast<size_t>(id) + 1) * code_width_;
  if (codes_.size() < needed) codes_.resize(needed);
  EncodeRow(values, codes_.data() + static_cast<size_t>(id) * code_width_);
  return id;
}

size_t QuantizedStore::TrimTombstonedTail() {
  const size_t trimmed = matrix_->TrimTombstonedTail();
  if (trimmed > 0) {
    codes_.resize(matrix_->rows() * code_width_);
    codes_.shrink_to_fit();
  }
  return trimmed;
}

std::vector<float> QuantizedStore::DecodeAll() const {
  const size_t dim = matrix_->cols();
  std::vector<float> decoded(matrix_->rows() * dim);
  for (size_t r = 0; r < matrix_->rows(); ++r) {
    DecodeRow(static_cast<uint32_t>(r), decoded.data() + r * dim);
  }
  return decoded;
}

bool QuantizedStore::RetrainQuantizer() {
  const size_t dim = matrix_->cols();
  const size_t rows = matrix_->rows();
  if (!trained_ || dim == 0 || rows == 0) return false;

  // Decode every physical row with the *current* params first: the new
  // params and codes must be a pure function of the old codes so WAL
  // replay and replication reproduce them byte-identically.
  const FloatMatrix decoded(rows, dim, DecodeAll());

  // Train on live rows only — tombstoned slots no longer pull the params
  // toward stale data.
  std::vector<uint32_t> live;
  live.reserve(matrix_->live_rows());
  for (size_t r = 0; r < rows; ++r) {
    if (!matrix_->IsDeleted(r)) live.push_back(static_cast<uint32_t>(r));
  }
  if (live.empty()) return false;
  Train(decoded, live);

  // Re-encode every physical row (tombstoned included) so the whole code
  // array stays a deterministic function of its prior state.
  for (size_t r = 0; r < rows; ++r) {
    EncodeRow(decoded.row(r), codes_.data() + r * code_width_);
  }
  return true;
}

void QuantizedStore::MaterializeDecodeView() {
  matrix_->SetPayload(DecodeAll());
}

void QuantizedStore::ReleaseDecodeView() { matrix_->ReleasePayload(); }

FloatMatrix QuantizedStore::DecodedCopy() const {
  FloatMatrix out(matrix_->rows(), matrix_->cols(), DecodeAll());
  // Replay tombstones in erasure order so the copy's LIFO free-list
  // recycles exactly like the live store would.
  for (const uint32_t slot : matrix_->free_slots()) {
    Status erased = out.EraseRow(slot);
    assert(erased.ok());
    (void)erased;
  }
  return out;
}

std::span<const uint8_t> QuantizedStore::payload() const {
  return util::BytesOf(codes_);
}

// ----------------------------------------------------------------- sq8 ----

Sq8Store::Sq8Store(std::unique_ptr<FloatMatrix> seed)
    : QuantizedStore(std::move(seed), seed->cols(), /*trained=*/false),
      scale_(matrix_->cols(), 1.0f),
      offset_(matrix_->cols(), 0.0f) {
  Seed();
}

Sq8Store::Sq8Store(std::unique_ptr<FloatMatrix> data,
                   std::vector<float> scale, std::vector<float> offset)
    : QuantizedStore(std::move(data), scale.size(), /*trained=*/true),
      scale_(std::move(scale)),
      offset_(std::move(offset)) {
  assert(scale_.size() == matrix_->cols() &&
         offset_.size() == matrix_->cols());
  EncodeAndRelease();
}

Sq8Store::Sq8Store(std::unique_ptr<FloatMatrix> shell,
                   std::vector<float> scale, std::vector<float> offset,
                   std::vector<uint8_t> codes, bool trained)
    : QuantizedStore(std::move(shell), scale.size(), std::move(codes),
                     trained),
      scale_(std::move(scale)),
      offset_(std::move(offset)) {
  assert(scale_.size() == matrix_->cols() &&
         offset_.size() == matrix_->cols());
}

void Sq8Store::Train(const FloatMatrix& rows,
                     const std::vector<uint32_t>& ids) {
  const size_t dim = rows.cols();
  std::vector<float> lo(dim, std::numeric_limits<float>::max());
  std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
  for (const uint32_t r : ids) {
    const float* row = rows.row(r);
    for (size_t d = 0; d < dim; ++d) {
      lo[d] = std::min(lo[d], row[d]);
      hi[d] = std::max(hi[d], row[d]);
    }
  }
  for (size_t d = 0; d < dim; ++d) {
    offset_[d] = lo[d];
    const float range = hi[d] - lo[d];
    scale_[d] = range > 0.0f ? range / 255.0f : 1.0f;
  }
}

void Sq8Store::EncodeRow(const float* values, uint8_t* out) const {
  for (size_t d = 0; d < scale_.size(); ++d) {
    const float level = (values[d] - offset_[d]) / scale_[d];
    const float clamped = std::min(255.0f, std::max(0.0f, level));
    out[d] = static_cast<uint8_t>(std::lround(clamped));
  }
}

size_t Sq8Store::resident_bytes() const {
  return QuantizedStore::resident_bytes() +
         (scale_.capacity() + offset_.capacity()) * sizeof(float);
}

void Sq8Store::DecodeRow(uint32_t id, float* out) const {
  const uint8_t* row = code(id);
  for (size_t d = 0; d < scale_.size(); ++d) {
    out[d] = offset_[d] + scale_[d] * static_cast<float>(row[d]);
  }
}

float Sq8Store::ExactL2Squared(const float* query, uint32_t id) const {
  return simd::Active().sq8_l2_asym(query, offset_.data(), scale_.data(),
                                    code(id), matrix_->cols());
}

void Sq8Store::PrepareQuery(const float* query,
                            std::vector<float>* prep) const {
  // Quantize the query into code space and premultiply by the scales:
  // prep[d] = scale[d] * round(clamp((q[d] - offset[d]) / scale[d])).
  // ScoreBatch then computes sum (prep - scale*code)^2 =
  // sum scale^2 (q_code - code)^2 — the offsets cancel, and the row side
  // needs only the u8 codes.
  const size_t dim = matrix_->cols();
  prep->resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    const float level = (query[d] - offset_[d]) / scale_[d];
    const float clamped = std::min(255.0f, std::max(0.0f, level));
    (*prep)[d] =
        scale_[d] * static_cast<float>(std::lround(clamped));
  }
}

void Sq8Store::ScoreBatch(const float* prep, size_t start,
                          const uint32_t* ids, size_t n, float* out) const {
  const size_t dim = matrix_->cols();
  if (ids != nullptr) {
    simd::Active().sq8_score_batch(prep, scale_.data(), code(0), dim, ids, n,
                                   out);
  } else {
    simd::Active().sq8_score_batch(prep, scale_.data(), code(start), dim,
                                   nullptr, n, out);
  }
}

void Sq8Store::EncodeParams(std::vector<uint8_t>* out) const {
  util::AppendBytes(out, util::BytesOf(scale_));
  util::AppendBytes(out, util::BytesOf(offset_));
}

std::unique_ptr<VectorStore> Sq8Store::Reencode(
    std::unique_ptr<FloatMatrix> rows) const {
  return std::make_unique<Sq8Store>(std::move(rows), scale_, offset_);
}

// ------------------------------------------------------------------ pq ----

PqStore::PqStore(std::unique_ptr<FloatMatrix> seed, size_t m)
    : QuantizedStore(std::move(seed), m, /*trained=*/false) {
  assert(m >= 1 && (matrix_->cols() == 0 || m <= matrix_->cols()));
  InitSubspaces();
  Seed();
}

PqStore::PqStore(std::unique_ptr<FloatMatrix> data, size_t m,
                 std::vector<float> codebooks)
    : QuantizedStore(std::move(data), m, /*trained=*/true),
      codebooks_(std::move(codebooks)) {
  assert(m >= 1 && m <= matrix_->cols());
  assert(codebooks_.size() == kCentroids * matrix_->cols());
  InitSubspaces();
  EncodeAndRelease();
}

PqStore::PqStore(std::unique_ptr<FloatMatrix> shell, size_t m,
                 std::vector<float> codebooks, std::vector<uint8_t> codes,
                 bool trained)
    : QuantizedStore(std::move(shell), m, std::move(codes), trained),
      codebooks_(std::move(codebooks)) {
  assert(m >= 1 && m <= matrix_->cols());
  assert(codebooks_.size() == kCentroids * matrix_->cols());
  InitSubspaces();
}

void PqStore::InitSubspaces() {
  // Balanced ragged split: the first dim % m subspaces take one extra
  // dimension, so sum of widths == dim for any dim >= m.
  const size_t dim = matrix_->cols();
  sub_begin_.assign(m() + 1, 0);
  const size_t base = dim / m();
  const size_t extra = dim % m();
  for (size_t j = 0; j < m(); ++j) {
    sub_begin_[j + 1] = sub_begin_[j] + base + (j < extra ? 1 : 0);
  }
  if (codebooks_.empty()) codebooks_.assign(kCentroids * dim, 0.0f);
}

void PqStore::Train(const FloatMatrix& rows,
                    const std::vector<uint32_t>& ids) {
  const size_t npoints = std::min(ids.size(), kTrainSample);
  constexpr size_t kLloydIters = 8;
  std::vector<uint8_t> assign(npoints);
  for (size_t j = 0; j < m(); ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    float* cb = codebooks_.data() + kCentroids * begin;
    // Initial centroids: evenly strided over the sample; with fewer rows
    // than centroids the surplus duplicates wrap around (every training
    // row then owns its own centroid and encodes exactly).
    for (size_t c = 0; c < kCentroids; ++c) {
      const uint32_t r = npoints >= kCentroids
                             ? ids[c * npoints / kCentroids]
                             : ids[c % npoints];
      const float* src = rows.row(r) + begin;
      std::copy(src, src + dsub, cb + c * dsub);
    }
    // Lloyd iterations: ties and empty clusters are resolved
    // deterministically (lowest index wins; empties keep their centroid),
    // so the codebooks are a pure function of the training rows.
    std::vector<double> sums(kCentroids * dsub);
    std::vector<size_t> counts(kCentroids);
    for (size_t iter = 0; iter < kLloydIters; ++iter) {
      bool moved = false;
      for (size_t p = 0; p < npoints; ++p) {
        const size_t best_c =
            NearestCentroid(rows.row(ids[p]) + begin, cb, dsub);
        if (assign[p] != best_c) moved = true;
        assign[p] = static_cast<uint8_t>(best_c);
      }
      if (iter > 0 && !moved) break;  // converged; further passes no-op
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0);
      for (size_t p = 0; p < npoints; ++p) {
        const float* v = rows.row(ids[p]) + begin;
        double* sum = sums.data() + static_cast<size_t>(assign[p]) * dsub;
        for (size_t d = 0; d < dsub; ++d) sum[d] += v[d];
        ++counts[assign[p]];
      }
      for (size_t c = 0; c < kCentroids; ++c) {
        if (counts[c] == 0) continue;  // empty cluster: keep the centroid
        float* cent = cb + c * dsub;
        for (size_t d = 0; d < dsub; ++d) {
          cent[d] = static_cast<float>(sums[c * dsub + d] /
                                       static_cast<double>(counts[c]));
        }
      }
    }
  }
}

void PqStore::EncodeRow(const float* values, uint8_t* out) const {
  for (size_t j = 0; j < m(); ++j) {
    const size_t begin = sub_begin_[j];
    out[j] = static_cast<uint8_t>(
        NearestCentroid(values + begin, codebooks_.data() + kCentroids * begin,
                        sub_dim(j)));
  }
}

size_t PqStore::resident_bytes() const {
  return QuantizedStore::resident_bytes() +
         codebooks_.capacity() * sizeof(float) +
         sub_begin_.capacity() * sizeof(size_t);
}

void PqStore::DecodeRow(uint32_t id, float* out) const {
  const uint8_t* row = code(id);
  for (size_t j = 0; j < m(); ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    const float* cent =
        codebooks_.data() + kCentroids * begin + row[j] * dsub;
    std::copy(cent, cent + dsub, out + begin);
  }
}

float PqStore::ExactL2Squared(const float* query, uint32_t id) const {
  // Plain scalar accumulation on purpose: the re-rank ordering must be
  // identical on every SIMD tier (the ADC hot path already is), keeping
  // whole-search results tier-independent under PQ.
  const uint8_t* row = code(id);
  float total = 0.0f;
  for (size_t j = 0; j < m(); ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    const float* cent =
        codebooks_.data() + kCentroids * begin + row[j] * dsub;
    for (size_t d = 0; d < dsub; ++d) {
      const float diff = query[begin + d] - cent[d];
      total += diff * diff;
    }
  }
  return total;
}

void PqStore::PrepareQuery(const float* query,
                           std::vector<float>* prep) const {
  // The ADC lookup table: prep[j * 256 + c] = ||q_sub(j) - centroid(j,c)||^2,
  // so ScoreBatch is pure table accumulation. Built with plain scalar
  // arithmetic — never through simd::Active() — so the table (and thus
  // every downstream score) is identical on every tier.
  prep->resize(m() * kCentroids);
  for (size_t j = 0; j < m(); ++j) {
    const size_t begin = sub_begin_[j];
    const size_t dsub = sub_begin_[j + 1] - begin;
    const float* q = query + begin;
    const float* cb = codebooks_.data() + kCentroids * begin;
    float* row = prep->data() + j * kCentroids;
    for (size_t c = 0; c < kCentroids; ++c) {
      const float* cent = cb + c * dsub;
      float dist = 0.0f;
      for (size_t d = 0; d < dsub; ++d) {
        const float diff = q[d] - cent[d];
        dist += diff * diff;
      }
      row[c] = dist;
    }
  }
}

void PqStore::ScoreBatch(const float* prep, size_t start,
                         const uint32_t* ids, size_t n, float* out) const {
  if (ids != nullptr) {
    simd::Active().pq_adc_batch(prep, code(0), m(), ids, n, out);
  } else {
    simd::Active().pq_adc_batch(prep, code(start), m(), nullptr, n, out);
  }
}

void PqStore::EncodeParams(std::vector<uint8_t>* out) const {
  util::AppendPod(out, static_cast<uint32_t>(m()));
  util::AppendBytes(out, util::BytesOf(codebooks_));
}

std::unique_ptr<VectorStore> PqStore::Reencode(
    std::unique_ptr<FloatMatrix> rows) const {
  return std::make_unique<PqStore>(std::move(rows), m(), codebooks_);
}

std::unique_ptr<VectorStore> MakeVectorStore(
    StorageKind kind, std::unique_ptr<FloatMatrix> data, size_t pq_m) {
  switch (kind) {
    case StorageKind::kSq8:
      return std::make_unique<Sq8Store>(std::move(data));
    case StorageKind::kPq:
      return std::make_unique<PqStore>(std::move(data), pq_m);
    case StorageKind::kFp32:
      break;
  }
  return std::make_unique<Fp32Store>(std::move(data));
}

// ------------------------------------------------------------- codec ----

namespace {

Status Corrupt(const std::string& what) {
  return Status::Corruption("store: " + what);
}

/// A payload-released rows x dim metadata matrix for adopted codes. Rows
/// are appended as metadata only, so the fp32 payload (4x the sq8 codes,
/// 4*dim/m x the pq codes just read) is never allocated.
std::unique_ptr<FloatMatrix> Shell(uint64_t rows, uint64_t dim) {
  auto shell = std::make_unique<FloatMatrix>(0, dim);
  shell->ReleasePayload();
  const std::vector<float> unread(dim);  // a released matrix skips the copy
  for (uint64_t r = 0; r < rows; ++r) shell->AppendRow(unread.data(), dim);
  return shell;
}

}  // namespace

Result<std::unique_ptr<VectorStore>> DecodeVectorStore(
    const StoreHeader& header, util::PodReader* in) {
  const uint64_t rows = header.rows;
  const uint64_t dim = header.dim;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (dim == 0 || rows > kMax / dim || dim > kMax / PqStore::kCentroids) {
    return Corrupt("implausible shape " + std::to_string(rows) + "x" +
                   std::to_string(dim));
  }
  const uint64_t cells = rows * dim;
  std::unique_ptr<VectorStore> store;
  switch (static_cast<StorageKind>(header.kind)) {
    case StorageKind::kFp32: {
      std::vector<float> values;
      if (!in->ReadVector(cells, &values)) return Corrupt("truncated rows");
      store = std::make_unique<Fp32Store>(
          std::make_unique<FloatMatrix>(rows, dim, std::move(values)));
      break;
    }
    case StorageKind::kSq8: {
      std::vector<float> scale, offset;
      std::vector<uint8_t> codes;
      if (!in->ReadVector(dim, &scale) || !in->ReadVector(dim, &offset)) {
        return Corrupt("truncated sq8 scales/offsets");
      }
      if (!in->ReadVector(cells, &codes)) {
        return Corrupt("truncated sq8 codes");
      }
      store = std::make_unique<Sq8Store>(Shell(rows, dim), std::move(scale),
                                         std::move(offset), std::move(codes),
                                         header.trained);
      break;
    }
    case StorageKind::kPq: {
      uint32_t m = 0;
      std::vector<float> codebooks;
      std::vector<uint8_t> codes;
      if (!in->Read(&m)) return Corrupt("truncated pq subspace count");
      if (m == 0 || m > dim) {
        return Corrupt("pq m=" + std::to_string(m) + " out of range for dim " +
                       std::to_string(dim));
      }
      if (!in->ReadVector(PqStore::kCentroids * dim, &codebooks)) {
        return Corrupt("truncated pq codebooks");
      }
      if (!in->ReadVector(rows * m, &codes)) {
        return Corrupt("truncated pq codes");
      }
      store = std::make_unique<PqStore>(Shell(rows, dim), m,
                                        std::move(codebooks),
                                        std::move(codes), header.trained);
      break;
    }
    default:
      return Corrupt("unknown storage kind " + std::to_string(header.kind));
  }
  // Replay the free list in erasure order so InsertRow recycles slots in
  // exactly the order the encoded store would have.
  for (uint64_t i = 0; i < header.free_count; ++i) {
    uint32_t slot = 0;
    if (!in->Read(&slot)) return Corrupt("truncated free list");
    if (slot >= rows || store->matrix().IsDeleted(slot)) {
      return Corrupt("free slot " + std::to_string(slot) +
                     " out of range or repeated");
    }
    DBLSH_RETURN_IF_ERROR(store->EraseRow(slot));
  }
  return store;
}

}  // namespace dblsh
