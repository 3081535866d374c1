#ifndef DBLSH_DATASET_VECTOR_STORE_H_
#define DBLSH_DATASET_VECTOR_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dataset/float_matrix.h"
#include "util/bytes.h"
#include "util/status.h"

namespace dblsh {

/// Storage backends a VectorStore can be built as (Collection spec key
/// `storage=fp32|sq8|pq`).
enum class StorageKind : int {
  kFp32 = 0,  ///< raw fp32 rows — byte-identical to the pre-store layout
  kSq8 = 1,   ///< per-dimension scalar-quantized u8 rows (~4x compression)
  kPq = 2,    ///< product-quantized m-byte rows (~16x at dim 128 / m 16)
};

/// Stable name of a storage backend ("fp32", "sq8", "pq"); serialized into
/// v3/v4 index files and reported by stats surfaces.
const char* StorageKindName(StorageKind kind);

/// Parses a `storage=` spec value ("fp32" | "sq8" | "pq") into a
/// StorageKind.
Result<StorageKind> ParseStorageKind(const std::string& name);

/// The fields that frame a persisted store image (see VectorStore::Encode).
/// Each format keeps them in its own header: the v4 index file stores
/// kind, rows and dim; the shard snapshot stores all five.
struct StoreHeader {
  uint32_t kind = 0;        ///< StorageKind value; range-checked on decode
  uint64_t rows = 0;        ///< physical rows, tombstoned slots included
  uint64_t dim = 0;
  bool trained = true;      ///< false until an empty-seeded store trains
  uint64_t free_count = 0;  ///< free-list ids that follow the payload
};

/// Owns one shard's row bytes behind the FloatMatrix that the rest of the
/// system keeps talking to. The matrix remains the source of truth for
/// *shape* — ids, tombstones, the LIFO free-list — while the store decides
/// how the payload is represented:
///
/// - **Fp32Store** keeps the payload inside the matrix, bit-identical to
///   the pre-store code: same bytes, same kernels, same results.
/// - **QuantizedStore** keeps each row as a fixed number of code bytes and
///   *releases* the matrix's fp32 payload — the matrix becomes a metadata
///   shell (FloatMatrix::payload_released()), which is what makes the
///   memory saving real instead of an extra copy. Its two codecs are
///   **Sq8Store** (one byte per dimension, ~4x) and **PqStore** (m bytes
///   per row, ~16x at dim 128 / m 16).
///
/// Query-time integration is through the shared verification path
/// (core/verify.cc): the store binds itself to its matrix
/// (FloatMatrix::BindStore), and VerifyCandidates scores candidates via
/// PrepareQuery/ScoreBatch whenever the bound store is quantized() —
/// identical tombstone/filter/budget semantics, different bytes scanned.
/// Index builds (hashing, projections) keep reading fp32 through a decode
/// view (ScopedDecodeView) so every method works against either backend
/// with zero per-method code.
///
/// Thread-safety mirrors FloatMatrix: reads (ScoreBatch, ExactL2Squared,
/// DecodeRow, DecodedCopy, stats) may run concurrently; mutations
/// (InsertRow/EraseRow, Materialize/ReleaseDecodeView) must be externally
/// serialized against them (the Collection's per-shard writer lock).
class VectorStore {
 public:
  virtual ~VectorStore();

  VectorStore(const VectorStore&) = delete;
  VectorStore& operator=(const VectorStore&) = delete;

  /// Which backend this store is.
  virtual StorageKind storage_kind() const = 0;

  /// StorageKindName(storage_kind()).
  const char* kind_name() const { return StorageKindName(storage_kind()); }

  /// True when rows are stored quantized: verification scores through
  /// PrepareQuery/ScoreBatch and search results should be re-ranked with
  /// ExactL2Squared (Collection does both automatically).
  bool quantized() const { return storage_kind() != StorageKind::kFp32; }

  /// The logical matrix (ids, tombstones, free-list; payload too for
  /// fp32). Address-stable for the life of the store — indexes keep raw
  /// pointers to it across rebinds.
  FloatMatrix& matrix() { return *matrix_; }
  const FloatMatrix& matrix() const { return *matrix_; }

  /// Payload bytes per vector slot (fp32: 4*dim, sq8: dim, pq: m).
  virtual size_t bytes_per_vector() const = 0;

  /// Heap bytes currently resident in this store: payload plus
  /// quantization parameters plus tombstone bookkeeping.
  virtual size_t resident_bytes() const = 0;

  /// Inserts one vector of matrix().cols() floats, recycling the most
  /// recently tombstoned slot like FloatMatrix::InsertRow (same LIFO
  /// contract), quantizing on write for quantized stores. Returns the id
  /// now holding the vector.
  virtual uint32_t InsertRow(const float* values, size_t len) = 0;

  /// Tombstones row `id` (exact FloatMatrix::EraseRow semantics). The
  /// row's bytes, fp32 or codes, stay in place under the tombstone:
  /// verification filters the id out, and InsertRow overwrites the slot
  /// when it recycles it.
  Status EraseRow(size_t id) { return matrix_->EraseRow(id); }

  /// Physically drops every trailing tombstoned row, shrinking the payload
  /// to match (FloatMatrix::TrimTombstonedTail plus the backend's own code
  /// array for quantized stores). Mutation: caller holds the writer lock
  /// and must swap/rebuild indexes in the same critical section. Returns
  /// rows removed.
  virtual size_t TrimTombstonedTail() = 0;

  /// Reconstructs row `id` as fp32 into out[0..matrix().cols()). Exact for
  /// fp32; the quantized reconstruction for sq8.
  virtual void DecodeRow(uint32_t id, float* out) const = 0;

  /// Exact squared L2 distance between the raw fp32 `query` and row `id`'s
  /// stored representation (decoded on the fly for sq8) — the re-rank
  /// scorer. No query quantization error.
  virtual float ExactL2Squared(const float* query, uint32_t id) const = 0;

  /// Prepares `query` once per query for repeated ScoreBatch calls,
  /// resizing `*prep` as needed. For sq8 this quantizes the query and
  /// premultiplies by the per-dimension scales; for fp32 it is a plain
  /// copy (ScoreBatch ignores the distinction).
  virtual void PrepareQuery(const float* query,
                            std::vector<float>* prep) const = 0;

  /// out[i] = squared distance between the prepared query and candidate i,
  /// where candidates are rows ids[0..n) when `ids != nullptr` and the
  /// contiguous rows [start, start + n) otherwise. For fp32 this is the
  /// exact L2; for sq8 the symmetric quantized score (both sides in code
  /// space), which is what the hot path scans.
  virtual void ScoreBatch(const float* prep, size_t start,
                          const uint32_t* ids, size_t n,
                          float* out) const = 0;

  /// Materializes decoded fp32 rows into the matrix so index builds can
  /// read matrix().row() (no-op for fp32). Mutation: caller holds the
  /// writer lock. Balanced by ReleaseDecodeView(); use ScopedDecodeView.
  virtual void MaterializeDecodeView() = 0;
  /// Releases a MaterializeDecodeView() payload (no-op for fp32).
  virtual void ReleaseDecodeView() = 0;

  /// A standalone fp32 matrix with this store's decoded rows and exact
  /// tombstone state (free-list replayed in erasure order). The basis for
  /// background-rebuild snapshots and Collection::Snapshot. The returned
  /// matrix carries no store binding.
  virtual FloatMatrix DecodedCopy() const = 0;

  /// Re-derives the quantization parameters from the live rows, as they
  /// decode now, and re-encodes every physical row. Training on decoded
  /// rows drops the pull of tombstoned rows (sq8's range narrows to the
  /// live ones) but cannot restore what encoding lost: a row clamped at
  /// insert decodes clamped. Deterministic: the new codes are a pure
  /// function of the old codes + params, which is what lets WAL replay
  /// (WalOp::kRetrain) and replication reproduce them byte-identically.
  /// Returns true when it retrained, whether or not the parameters moved
  /// (false for fp32, an untrained store or no live rows). Mutation:
  /// caller holds the writer lock and rebuilds indexes afterwards.
  virtual bool RetrainQuantizer() { return false; }

  // ---------------------------------------------------- persisted state --
  // A store persists as `params ‖ payload` (layout: docs/API.md, "Store
  // section"). The params are the quantizer — none for fp32, per-dimension
  // scales and offsets for sq8, m and the codebooks for pq — and the
  // payload is every physical row as stored, tombstoned slots included.
  // The v4 index header carries the params and the payload's FNV-1a; the
  // shard snapshot body carries the whole image (Encode). Callers never
  // need to know the kind.

  /// Appends the params section to `out`.
  virtual void EncodeParams(std::vector<uint8_t>* out) const = 0;
  /// The payload bytes, in place (fp32 rows or u8 codes); valid until the
  /// store's next mutation.
  virtual std::span<const uint8_t> payload() const = 0;
  /// False until an empty-seeded quantized store trains on its first row.
  virtual bool trained() const { return true; }

  /// The header fields that frame this store's image.
  StoreHeader header() const;
  /// Appends this store's image — `params ‖ payload ‖ free list` (the
  /// matrix's tombstoned slots, in erasure order, as u32) — which
  /// DecodeVectorStore(header(), ...) restores byte-identically.
  void Encode(std::vector<uint8_t>* out) const;

  /// A store of this kind and with these params over `rows`' fp32 data,
  /// re-encoded (never re-trained) — the index-file restore, whose payload
  /// is the caller's dataset. `rows` must have matrix().cols() columns.
  virtual std::unique_ptr<VectorStore> Reencode(
      std::unique_ptr<FloatMatrix> rows) const = 0;

 protected:
  /// Adopts `matrix` (never null) and binds this store to it.
  explicit VectorStore(std::unique_ptr<FloatMatrix> matrix);

  std::unique_ptr<FloatMatrix> matrix_;
};

/// RAII pairing of MaterializeDecodeView/ReleaseDecodeView around an index
/// build. Caller holds the shard's writer lock for the whole scope.
class ScopedDecodeView {
 public:
  explicit ScopedDecodeView(VectorStore* store) : store_(store) {
    store_->MaterializeDecodeView();
  }
  ~ScopedDecodeView() { store_->ReleaseDecodeView(); }

  ScopedDecodeView(const ScopedDecodeView&) = delete;
  ScopedDecodeView& operator=(const ScopedDecodeView&) = delete;

 private:
  VectorStore* store_;
};

/// The identity backend: payload stays in the FloatMatrix, every operation
/// forwards to it, and verification takes the exact pre-store fp32 path —
/// `storage=fp32` is bit-identical to the historical collection.
class Fp32Store final : public VectorStore {
 public:
  /// Adopts `data` without copying — the matrix address stays stable, so
  /// indexes built over it before the hand-off stay valid
  /// (Collection::AddPrebuiltIndex relies on this).
  explicit Fp32Store(std::unique_ptr<FloatMatrix> data);

  StorageKind storage_kind() const override { return StorageKind::kFp32; }
  size_t bytes_per_vector() const override;
  size_t resident_bytes() const override;
  uint32_t InsertRow(const float* values, size_t len) override;
  size_t TrimTombstonedTail() override;
  void DecodeRow(uint32_t id, float* out) const override;
  float ExactL2Squared(const float* query, uint32_t id) const override;
  void PrepareQuery(const float* query,
                    std::vector<float>* prep) const override;
  void ScoreBatch(const float* prep, size_t start, const uint32_t* ids,
                  size_t n, float* out) const override;
  void MaterializeDecodeView() override {}
  void ReleaseDecodeView() override {}
  FloatMatrix DecodedCopy() const override;
  void EncodeParams(std::vector<uint8_t>* out) const override;
  std::span<const uint8_t> payload() const override;
  std::unique_ptr<VectorStore> Reencode(
      std::unique_ptr<FloatMatrix> rows) const override;
};

/// The one code-array lifecycle of the quantized backends: each row is
/// bytes_per_vector() code bytes in one array (tombstoned slots included),
/// and the adopted matrix keeps only metadata (payload released). This
/// class inserts and encodes, trims the tail, materializes the decode
/// view, copies decoded rows and retrains; a codec (Sq8Store, PqStore)
/// supplies only its parameters and how to train, encode, decode and
/// score them.
///
/// Training: a seeded store trains on every physical row (tombstoned
/// slots included, so the parameters do not depend on erasure timing). A
/// store constructed over an empty matrix is untrained until its first
/// InsertRow, which trains the codec on that one row — degenerate
/// parameters (sq8: scale 1.0 around the vector; pq: every centroid at
/// its sub-vector), so seed a representative sample when possible.
/// RetrainQuantizer re-fits them to the live rows later.
///
/// Updates: in-place index maintenance (AnnIndex::Insert reading fp32
/// rows) is unavailable over a released payload; the Collection treats
/// every slot as static under quantized storage and relies on
/// staleness-triggered rebuilds through the decode view.
class QuantizedStore : public VectorStore {
 public:
  size_t bytes_per_vector() const final { return code_width_; }
  /// Codes, plus the decode view while one is held, plus the tombstone
  /// bookkeeping; each codec adds its parameters.
  size_t resident_bytes() const override;
  /// Trains an untrained store on `values` first, then grows the code
  /// array as needed and encodes the row into its slot.
  uint32_t InsertRow(const float* values, size_t len) override;
  size_t TrimTombstonedTail() override;
  void MaterializeDecodeView() override;
  void ReleaseDecodeView() override;
  FloatMatrix DecodedCopy() const override;
  bool RetrainQuantizer() override;
  std::span<const uint8_t> payload() const override;
  bool trained() const override { return trained_; }

  /// Raw code bytes, row r at codes()[r * bytes_per_vector() ..) — the
  /// payload.
  const std::vector<uint8_t>& codes() const { return codes_; }

 protected:
  /// Adopts `matrix` with `code_width` code bytes per row and nothing
  /// encoded yet: the codec's constructor then calls Seed() or
  /// EncodeAndRelease(). `matrix` binds as an rvalue reference so the
  /// codec may read its shape in the same initializer list.
  QuantizedStore(std::unique_ptr<FloatMatrix>&& matrix, size_t code_width,
                 bool trained);
  /// Adopts persisted code bytes verbatim (DecodeVectorStore, which checks
  /// every size first): `shell` is a payload-released metadata matrix and
  /// `codes` its shell->rows() * code_width bytes — no re-encoding, so the
  /// restored store is byte-identical to the one that was encoded.
  QuantizedStore(std::unique_ptr<FloatMatrix> shell, size_t code_width,
                 std::vector<uint8_t> codes, bool trained);

  /// The seeding constructors' step: trains on every physical row when
  /// there is one, then EncodeAndRelease().
  void Seed();
  /// Encodes every physical row of the fp32 matrix and releases its
  /// payload (the seeding and Reencode constructors).
  void EncodeAndRelease();

  /// Derives the codec's parameters from rows `ids` (ascending, at least
  /// one) of `rows`, which has matrix().cols() columns.
  virtual void Train(const FloatMatrix& rows,
                     const std::vector<uint32_t>& ids) = 0;
  /// Encodes one fp32 row into its bytes_per_vector() code bytes.
  virtual void EncodeRow(const float* values, uint8_t* out) const = 0;

  /// Row `id`'s code bytes.
  const uint8_t* code(size_t id) const {
    return codes_.data() + id * code_width_;
  }

 private:
  /// Every physical row decoded, row-major (rows x cols floats).
  std::vector<float> DecodeAll() const;

  std::vector<uint8_t> codes_;  ///< rows x code_width_
  size_t code_width_;
  bool trained_;
};

/// Scalar-quantized codec: one code byte per dimension.
///
/// Quantization: per-dimension affine codes — offset[d] = min over the
/// training rows, scale[d] = (max - min) / 255 (1.0 when the dimension is
/// constant), code = round((v - offset) / scale) clamped to [0, 255].
/// Reconstruction error is at most scale[d]/2 per dimension for in-range
/// values; vectors inserted later that fall outside the trained range
/// clamp (their error can exceed the bound — re-rank still orders whatever
/// the codes admit as candidates). Retraining decodes first, so it can
/// narrow the range to the live rows but never widen it.
class Sq8Store final : public QuantizedStore {
 public:
  /// Trains on `seed`'s rows, encodes them, and releases the seed's fp32
  /// payload. The seed's tombstone state is preserved as-is.
  explicit Sq8Store(std::unique_ptr<FloatMatrix> seed);

  /// Restores a store from persisted quantization parameters (Reencode,
  /// the index-file restore): re-encodes `data`'s rows with the *saved*
  /// scale/offset instead of re-training, then releases the payload.
  /// `scale`/`offset` must have data->cols() entries.
  Sq8Store(std::unique_ptr<FloatMatrix> data, std::vector<float> scale,
           std::vector<float> offset);

  /// Adopts persisted code bytes directly (DecodeVectorStore): `codes`
  /// are shell->rows() * shell->cols() bytes verbatim, and `trained`
  /// round-trips the empty-seeded flag.
  Sq8Store(std::unique_ptr<FloatMatrix> shell, std::vector<float> scale,
           std::vector<float> offset, std::vector<uint8_t> codes,
           bool trained);

  StorageKind storage_kind() const override { return StorageKind::kSq8; }
  size_t resident_bytes() const override;
  void DecodeRow(uint32_t id, float* out) const override;
  float ExactL2Squared(const float* query, uint32_t id) const override;
  void PrepareQuery(const float* query,
                    std::vector<float>* prep) const override;
  void ScoreBatch(const float* prep, size_t start, const uint32_t* ids,
                  size_t n, float* out) const override;
  void EncodeParams(std::vector<uint8_t>* out) const override;
  std::unique_ptr<VectorStore> Reencode(
      std::unique_ptr<FloatMatrix> rows) const override;

  /// Per-dimension quantization parameters (the params section).
  const std::vector<float>& scales() const { return scale_; }
  const std::vector<float>& offsets() const { return offset_; }

 private:
  /// scale_/offset_ from the per-dimension min/max over rows `ids`.
  void Train(const FloatMatrix& rows,
             const std::vector<uint32_t>& ids) override;
  void EncodeRow(const float* values, uint8_t* out) const override;

  std::vector<float> scale_;   ///< per-dimension, > 0
  std::vector<float> offset_;  ///< per-dimension
};

/// Product-quantized codec: each row is split into `m` contiguous
/// subspaces and stored as one byte per subspace — the index of the
/// nearest centroid in that subspace's 256-entry codebook (nbits = 8).
///
/// Subspace split: balanced ragged — the first dim % m subspaces get
/// ceil(dim/m) dimensions, the rest floor(dim/m) — so any dim >= m works
/// without padding, and the concatenated codebooks always total 256 * dim
/// floats regardless of the split.
///
/// Training: deterministic per-subspace k-means (Lloyd) over the training
/// rows, capped at the first kTrainSample of them. Initial centroids are
/// evenly strided over the sample; with fewer rows than centroids the
/// surplus centroids duplicate existing rows (every training row then
/// encodes exactly). Empty clusters keep their previous centroid, and
/// distance ties assign to the lowest centroid index, so the codebooks
/// are a pure function of the training rows — the determinism WAL replay
/// and replication rely on (see RetrainQuantizer).
///
/// Scoring: PrepareQuery computes the ADC lookup table — m x 256 squared
/// sub-distances from the query to every centroid — once per query, in
/// plain scalar arithmetic so it is identical on every SIMD tier; the
/// ScoreBatch hot path is then pure table accumulation (simd pq_adc_scan
/// kernels, bit-identical across tiers). Unlike SQ8 the query side is
/// never quantized, so ADC scores are exact on the query side; re-rank
/// (ExactL2Squared) re-scores against the same reconstruction and exists
/// for ordering stability under the shared rerank=N machinery.
class PqStore final : public QuantizedStore {
 public:
  /// Centroids per subspace (nbits = 8 — the one code width the 1-byte
  /// layout and the ADC kernels support).
  static constexpr size_t kCentroids = 256;
  /// Deterministic training-sample cap: k-means trains on the first
  /// kTrainSample training rows (all of them when fewer).
  static constexpr size_t kTrainSample = 16384;

  /// Trains codebooks on `seed`'s rows, encodes them, and releases the
  /// seed's fp32 payload. `m` must be in [1, seed->cols()]. The seed's
  /// tombstone state is preserved.
  PqStore(std::unique_ptr<FloatMatrix> seed, size_t m);

  /// Restores a store from persisted codebooks (Reencode, the index-file
  /// restore): re-encodes `data`'s rows with the *saved* codebooks instead
  /// of re-training, then releases the payload. `codebooks` must have
  /// 256 * data->cols() floats.
  PqStore(std::unique_ptr<FloatMatrix> data, size_t m,
          std::vector<float> codebooks);

  /// Adopts persisted code bytes directly (DecodeVectorStore): `codes`
  /// are shell->rows() * m bytes verbatim.
  PqStore(std::unique_ptr<FloatMatrix> shell, size_t m,
          std::vector<float> codebooks, std::vector<uint8_t> codes,
          bool trained);

  StorageKind storage_kind() const override { return StorageKind::kPq; }
  size_t resident_bytes() const override;
  void DecodeRow(uint32_t id, float* out) const override;
  float ExactL2Squared(const float* query, uint32_t id) const override;
  void PrepareQuery(const float* query,
                    std::vector<float>* prep) const override;
  void ScoreBatch(const float* prep, size_t start, const uint32_t* ids,
                  size_t n, float* out) const override;
  void EncodeParams(std::vector<uint8_t>* out) const override;
  std::unique_ptr<VectorStore> Reencode(
      std::unique_ptr<FloatMatrix> rows) const override;

  /// Number of subspaces (= code bytes per row).
  size_t m() const { return bytes_per_vector(); }
  /// Concatenated sub-quantizer codebooks: subspace j's centroid c spans
  /// codebooks()[256 * sub_begin(j) + c * sub_dim(j) ..), totalling
  /// 256 * dim floats. With m, the params section.
  const std::vector<float>& codebooks() const { return codebooks_; }
  /// First dimension of subspace j (j in [0, m]; sub_begin(m) == dim).
  size_t sub_begin(size_t j) const { return sub_begin_[j]; }
  /// Width of subspace j.
  size_t sub_dim(size_t j) const { return sub_begin_[j + 1] - sub_begin_[j]; }

 private:
  /// codebooks_ by deterministic k-means over the first kTrainSample of
  /// rows `ids`.
  void Train(const FloatMatrix& rows,
             const std::vector<uint32_t>& ids) override;
  /// Nearest centroid per subspace, lowest index on ties.
  void EncodeRow(const float* values, uint8_t* out) const override;
  /// Fills the balanced ragged subspace bounds for the matrix's dim.
  void InitSubspaces();

  std::vector<float> codebooks_;   ///< 256 * dim, per-subspace blocks
  std::vector<size_t> sub_begin_;  ///< m + 1 subspace dimension bounds
};

/// Constructs the requested backend over `data` (see Fp32Store / Sq8Store
/// / PqStore for adoption semantics). `pq_m` is the PQ subspace count,
/// ignored by the other backends.
std::unique_ptr<VectorStore> MakeVectorStore(StorageKind kind,
                                             std::unique_ptr<FloatMatrix> data,
                                             size_t pq_m = 16);

/// Decodes a store image (VectorStore::Encode) framed by `header` from
/// `in`: the params, the payload — adopted verbatim, never re-encoded —
/// and header.free_count free-list ids, replayed in order. The kind, every
/// field, every length and every id are checked against the header and the
/// bytes left before anything is allocated; any violation is Corruption.
/// A zero-row header decodes the params alone, which is how index files
/// read theirs.
Result<std::unique_ptr<VectorStore>> DecodeVectorStore(
    const StoreHeader& header, util::PodReader* in);

}  // namespace dblsh

#endif  // DBLSH_DATASET_VECTOR_STORE_H_
