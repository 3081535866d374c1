// Persistence for DbLsh. Format (host-endian, version 4):
//   magic "DBLSHIDX" | u32 version | u8 storage tag (StorageKind)
//   u64 n | u64 dim | u64 payload checksum (FNV-1a; see below)
//   store params (VectorStore::EncodeParams: nothing for fp32, the sq8
//   scales and offsets, the pq m and codebooks — docs/API.md "Store
//   section"), so LoadStore can re-encode the original dataset exactly
//   f64 c | f64 w0 | u64 k | u64 l | u64 t | u64 seed | u8 bucketing
//   u8 backend | f64 auto_r0 | f64 early_stop_slack
//   directions matrix (u64 rows, u64 cols, floats)
//   grid offsets (u64 count, floats)
//   l projected matrices (u64 rows, u64 cols, floats each; row id holds
//   the projection of id — exported from the R*-trees, with zeros for ids
//   not in the index)
//   tombstones: u64 count | u32 ids in erasure order (the free-list stack)
// The backend byte is 0 in every file Save writes. A 1 was written by a
// retired kd-tree backend that stored its projected spaces in the same
// row-per-id layout; it loads as R*-trees like a 0. Larger values are
// Corruption.
// Version 3 files are identical minus the pq storage variant; version 2
// files additionally lack the storage tag (implicitly fp32). Both still
// load. Loading reads the whole file and parses it with util::PodReader,
// so every length is checked against the bytes present before anything
// is allocated.
// The R*-trees are rebuilt by STR bulk loading at load time, each from its
// projected matrix, which is then dropped (the tree owns its points): they
// are a deterministic function of the projected matrices, bulk loading is
// fast (the paper's own construction path), and the file stays portable.
// The checksum pins the index to the exact dataset bytes it was saved
// over: it covers the store's payload (VectorStore::payload — the raw
// float rows for fp32, the u8 codes for sq8/pq, whose fp32 payload is
// released), which erase-only mutations never touch. A wrong/reordered/
// edited dataset is rejected with InvalidArgument instead of silently
// serving wrong neighbors. Tombstones are re-applied to the caller's
// dataset on load, restoring the free-list in its original order so
// InsertRow keeps recycling deterministically.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "core/db_lsh.h"

namespace dblsh {

namespace {

constexpr char kMagic[8] = {'D', 'B', 'L', 'S', 'H', 'I', 'D', 'X'};
constexpr uint32_t kVersion = 4;
constexpr uint32_t kVersionSq8 = 3;       // pre-PQ format (fp32/sq8 only)
constexpr uint32_t kVersionFp32Only = 2;  // pre-VectorStore format

void WriteMatrix(std::vector<uint8_t>* out, const FloatMatrix& m) {
  util::AppendPod<uint64_t>(out, m.rows());
  util::AppendPod<uint64_t>(out, m.cols());
  util::AppendBytes(out, util::BytesOf(m.data()));
}

/// Writes a tree's points in WriteMatrix's layout: row `id` holds the
/// coordinates the tree stores for `id`, or zeros when it holds none.
void WriteTreePoints(std::vector<uint8_t>* out, const rtree::RStarTree& tree,
                     size_t rows) {
  util::AppendPod<uint64_t>(out, rows);
  util::AppendPod<uint64_t>(out, tree.dim());
  const std::vector<float> zeros(tree.dim(), 0.f);
  for (size_t id = 0; id < rows; ++id) {
    const float* point = tree.Point(static_cast<uint32_t>(id));
    util::AppendBytes(out, point != nullptr ? point : zeros.data(),
                      tree.dim() * sizeof(float));
  }
}

Result<FloatMatrix> ReadMatrix(util::PodReader* in, const std::string& what) {
  uint64_t rows = 0, cols = 0;
  if (!in->Read(&rows) || !in->Read(&cols)) {
    return Status::Corruption("truncated " + what + " header");
  }
  if (rows == 0 || cols == 0 || rows > (1ULL << 40) / (cols + 1)) {
    return Status::Corruption("implausible " + what + " shape");
  }
  std::vector<float> values;
  if (!in->ReadVector(rows * cols, &values)) {
    return Status::Corruption("truncated " + what + " payload");
  }
  return FloatMatrix(rows, cols, std::move(values));
}

/// A whole index file in memory, parsed up to the end of the store params:
/// format version, storage tag, dataset shape, payload checksum and the
/// saved params. `in` is positioned at the index parameters.
struct IndexFile {
  std::vector<uint8_t> bytes;
  util::PodReader in{nullptr, 0};
  uint64_t n = 0;
  uint64_t dim = 0;
  uint64_t checksum = 0;
  /// The saved params, decoded as a zero-row store of the saved kind.
  std::unique_ptr<VectorStore> saved;
};

Status OpenIndexFile(const std::string& path, IndexFile* file) {
  auto bytes = util::ReadFileBytes(path);
  if (!bytes.ok()) return Status::IoError("cannot open " + path);
  file->bytes = std::move(bytes).value();
  file->in = util::PodReader(file->bytes.data(), file->bytes.size());
  util::PodReader& in = file->in;

  char magic[8];
  uint32_t version = 0;
  if (!in.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + ": not a DB-LSH index file");
  }
  if (!in.Read(&version) ||
      (version != kVersion && version != kVersionSq8 &&
       version != kVersionFp32Only)) {
    return Status::Corruption(path + ": unsupported index version");
  }
  StoreHeader store;  // rows = 0: the file holds the params, not the rows
  if (version >= kVersionSq8) {
    uint8_t tag = 0;
    if (!in.Read(&tag)) {
      return Status::Corruption(path + ": truncated storage tag");
    }
    if (tag == static_cast<uint8_t>(StorageKind::kPq) && version < kVersion) {
      return Status::Corruption(path +
                                ": pq storage requires format version 4");
    }
    store.kind = tag;
  }
  if (!in.Read(&file->n) || !in.Read(&file->dim) ||
      !in.Read(&file->checksum)) {
    return Status::Corruption(path + ": truncated header");
  }
  store.dim = file->dim;
  auto saved = DecodeVectorStore(store, &in);
  if (!saved.ok()) {
    return Status::Corruption(path + ": " + saved.status().message());
  }
  file->saved = std::move(saved).value();
  return Status::OK();
}

Status CheckShape(const std::string& path, const IndexFile& file,
                  const FloatMatrix& data) {
  if (file.n != data.rows() || file.dim != data.cols()) {
    return Status::InvalidArgument(
        path + ": index was built over a different dataset (" +
        std::to_string(file.n) + "x" + std::to_string(file.dim) + " vs " +
        std::to_string(data.rows()) + "x" + std::to_string(data.cols()) +
        ")");
  }
  return Status::OK();
}

Status CheckPayload(const std::string& path, const IndexFile& file,
                    std::span<const uint8_t> payload) {
  if (file.checksum != util::Fnv1a64(payload)) {
    return Status::InvalidArgument(
        path + ": payload checksum mismatch — the provided data is not the "
               "dataset this index was saved over");
  }
  return Status::OK();
}

}  // namespace

Status DbLsh::Save(const std::string& path) const {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Save() requires a built index");
  }
  // A store bound to the matrix owns the payload (for a quantized one the
  // fp32 rows are released): persist its params and checksum its payload.
  // A bare matrix is fp32 with no params.
  const VectorStore* store = data_->store();
  std::vector<uint8_t> out;
  util::AppendBytes(&out, kMagic, sizeof(kMagic));
  util::AppendPod(&out, kVersion);
  util::AppendPod<uint8_t>(
      &out, static_cast<uint8_t>(store != nullptr ? store->storage_kind()
                                                  : StorageKind::kFp32));
  util::AppendPod<uint64_t>(&out, data_->rows());
  util::AppendPod<uint64_t>(&out, data_->cols());
  util::AppendPod(&out, util::Fnv1a64(store != nullptr
                                          ? store->payload()
                                          : util::BytesOf(data_->data())));
  if (store != nullptr) store->EncodeParams(&out);
  util::AppendPod<double>(&out, params_.c);
  util::AppendPod<double>(&out, params_.w0);
  util::AppendPod<uint64_t>(&out, params_.k);
  util::AppendPod<uint64_t>(&out, params_.l);
  util::AppendPod<uint64_t>(&out, params_.t);
  util::AppendPod<uint64_t>(&out, params_.seed);
  util::AppendPod<uint8_t>(&out, static_cast<uint8_t>(params_.bucketing));
  util::AppendPod<uint8_t>(&out, 0);  // backend byte: R*-trees
  util::AppendPod<double>(&out, auto_r0_);
  util::AppendPod<double>(&out, params_.early_stop_slack);
  WriteMatrix(&out, bank_->directions());
  util::AppendPod<uint64_t>(&out, grid_offsets_.size());
  util::AppendBytes(&out, util::BytesOf(grid_offsets_));
  for (const rtree::RStarTree& tree : trees_) {
    WriteTreePoints(&out, tree, indexed_rows_);
  }
  util::AppendPod<uint64_t>(&out, data_->free_slots().size());
  util::AppendBytes(&out, util::BytesOf(data_->free_slots()));

  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
  if (!file) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<DbLsh> DbLsh::LoadIndexBody(util::PodReader* in,
                                   const std::string& path, uint64_t n,
                                   uint64_t dim, FloatMatrix* data) {
  DbLshParams params;
  uint64_t k = 0, l = 0, t = 0, seed = 0;
  uint8_t bucketing = 0, backend = 0;
  double auto_r0 = 1.0;
  if (!in->Read(&params.c) || !in->Read(&params.w0) || !in->Read(&k) ||
      !in->Read(&l) || !in->Read(&t) || !in->Read(&seed) ||
      !in->Read(&bucketing) || !in->Read(&backend) || !in->Read(&auto_r0) ||
      !in->Read(&params.early_stop_slack)) {
    return Status::Corruption(path + ": truncated parameters");
  }
  // Only what Build() can produce loads: known enum bytes (backend 0, or
  // the retired kd-tree backend's 1), the ranges it enforces (c > 1,
  // slack >= 1) or derives (w0, k, t, auto_r0 > 0), and finite reals.
  if (bucketing > static_cast<uint8_t>(BucketingMode::kFixedGrid) ||
      backend > 1 || l == 0 || k == 0 || t == 0 ||
      !std::isfinite(params.c) || params.c <= 1.0 ||
      !std::isfinite(params.w0) || params.w0 <= 0.0 ||
      !std::isfinite(auto_r0) || auto_r0 <= 0.0 ||
      !std::isfinite(params.early_stop_slack) ||
      params.early_stop_slack < 1.0) {
    return Status::Corruption(path + ": invalid stored parameters");
  }
  params.k = k;
  params.l = l;
  params.t = t;
  params.seed = seed;
  params.bucketing = static_cast<BucketingMode>(bucketing);

  auto directions = ReadMatrix(in, "projection directions");
  if (!directions.ok()) return directions.status();
  if (directions.value().rows() != params.l * params.k ||
      directions.value().cols() != dim) {
    return Status::Corruption(path + ": direction matrix shape mismatch");
  }

  uint64_t offset_count = 0;
  if (!in->Read(&offset_count) || offset_count != params.l * params.k) {
    return Status::Corruption(path + ": grid offset count mismatch");
  }
  std::vector<float> grid_offsets;
  if (!in->ReadVector(offset_count, &grid_offsets)) {
    return Status::Corruption(path + ": truncated grid offsets");
  }

  DbLsh index(params);
  index.data_ = data;
  index.auto_r0_ = auto_r0;
  index.bank_ =
      std::make_unique<lsh::ProjectionBank>(std::move(directions).value());
  index.grid_offsets_ = std::move(grid_offsets);
  index.indexed_rows_ = n;
  std::vector<FloatMatrix> spaces;
  spaces.reserve(params.l);
  for (size_t i = 0; i < params.l; ++i) {
    auto space = ReadMatrix(in, "projected space");
    if (!space.ok()) return space.status();
    if (space.value().rows() != n || space.value().cols() != params.k) {
      return Status::Corruption(path + ": projected space shape mismatch");
    }
    spaces.push_back(std::move(space).value());
  }
  uint64_t tombstone_count = 0;
  std::vector<uint32_t> tombstones;
  if (!in->Read(&tombstone_count) || tombstone_count > n ||
      !in->ReadVector(tombstone_count, &tombstones)) {
    return Status::Corruption(path + ": truncated/implausible tombstones");
  }
  // Re-apply in erasure order so the dataset's free-list stack matches the
  // saved state exactly (InsertRow recycles the same slots in the same
  // order as it would have before the save).
  for (uint32_t id : tombstones) {
    if (id >= n) return Status::Corruption(path + ": tombstone id range");
    if (!data->IsDeleted(id)) DBLSH_RETURN_IF_ERROR(data->EraseRow(id));
  }
  DBLSH_RETURN_IF_ERROR(index.BulkLoadTrees(std::move(spaces)));
  return index;
}

Result<DbLsh> DbLsh::Load(const std::string& path, FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("Load() requires the backing dataset");
  }
  IndexFile file;
  DBLSH_RETURN_IF_ERROR(OpenIndexFile(path, &file));
  if (file.saved->quantized()) {
    return Status::InvalidArgument(
        path + ": index was saved over " +
        std::string(file.saved->kind_name()) +
        " storage; restore its store with DbLsh::LoadStore and use the "
        "Load(path, VectorStore*) overload");
  }
  DBLSH_RETURN_IF_ERROR(CheckShape(path, file, *data));
  DBLSH_RETURN_IF_ERROR(CheckPayload(path, file, util::BytesOf(data->data())));
  return LoadIndexBody(&file.in, path, file.n, file.dim, data);
}

Result<std::unique_ptr<VectorStore>> DbLsh::LoadStore(
    const std::string& path, std::unique_ptr<FloatMatrix> data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("LoadStore() requires the backing dataset");
  }
  IndexFile file;
  DBLSH_RETURN_IF_ERROR(OpenIndexFile(path, &file));
  DBLSH_RETURN_IF_ERROR(CheckShape(path, file, *data));
  // Re-encode with the *saved* params (never re-training, which would
  // drift if the dataset was mutated after the store trained), then
  // require the resulting payload to be byte-identical to the saved one.
  std::unique_ptr<VectorStore> store = file.saved->Reencode(std::move(data));
  DBLSH_RETURN_IF_ERROR(CheckPayload(path, file, store->payload()));
  return store;
}

Result<DbLsh> DbLsh::Load(const std::string& path, VectorStore* store) {
  if (store == nullptr || store->matrix().rows() == 0) {
    return Status::InvalidArgument("Load() requires the backing store");
  }
  IndexFile file;
  DBLSH_RETURN_IF_ERROR(OpenIndexFile(path, &file));
  if (file.saved->storage_kind() != store->storage_kind()) {
    return Status::InvalidArgument(
        path + ": index was saved over " +
        std::string(file.saved->kind_name()) +
        " storage but the provided store is " + store->kind_name());
  }
  DBLSH_RETURN_IF_ERROR(CheckShape(path, file, store->matrix()));
  std::vector<uint8_t> saved_params, params;
  file.saved->EncodeParams(&saved_params);
  store->EncodeParams(&params);
  if (saved_params != params) {
    return Status::InvalidArgument(
        path + ": quantization parameters do not match the provided store "
               "(different training data or a mutated store)");
  }
  DBLSH_RETURN_IF_ERROR(CheckPayload(path, file, store->payload()));
  return LoadIndexBody(&file.in, path, file.n, file.dim, &store->matrix());
}

}  // namespace dblsh
