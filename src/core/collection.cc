// Collection construction, the collection spec grammar, the index
// lineup (AddIndex / AddPrebuiltIndex) and introspection. The rest of the
// class lives along its seams: collection_write.cc (apply and commit),
// collection_query.cc (route, serve, merge), collection_durability.cc
// (recovery, checkpoints, the WAL) and collection_rebuild.cc (rebuild and
// compaction triggers and the background loop).
#include "core/collection.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "core/collection_internal.h"
#include "core/index_factory.h"
#include "durability/snapshot.h"
#include "util/text.h"

namespace dblsh {

Collection::Collection(size_t dim, const CollectionOptions& options)
    : dim_(dim),
      executor_(options.executor != nullptr ? options.executor
                                            : &exec::TaskExecutor::Default()),
      background_rebuild_(options.background_rebuild),
      storage_(options.storage),
      quantized_(options.storage != StorageKind::kFp32),
      pq_m_(std::max<size_t>(1, options.pq_m)),
      rerank_(std::max<size_t>(1, options.rerank)) {
  const size_t num_shards = std::max<size_t>(1, options.shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->store = MakeVectorStore(
        storage_, std::make_unique<FloatMatrix>(0, dim), pq_m_);
    shard->data = &shard->store->matrix();
    shards_.push_back(std::move(shard));
  }
}

Collection::Collection(std::unique_ptr<FloatMatrix> data,
                       const CollectionOptions& options)
    : executor_(options.executor != nullptr ? options.executor
                                            : &exec::TaskExecutor::Default()),
      background_rebuild_(options.background_rebuild),
      storage_(options.storage),
      quantized_(options.storage != StorageKind::kFp32),
      pq_m_(std::max<size_t>(1, options.pq_m)),
      rerank_(std::max<size_t>(1, options.rerank)) {
  assert(data != nullptr);
  dim_ = data->cols();
  const size_t num_shards = std::max<size_t>(1, options.shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (num_shards == 1) {
    // Address-stable adoption: prebuilt indexes over *data stay valid
    // (fp32 storage; quantized stores re-encode, see AddPrebuiltIndex).
    shards_[0]->store = MakeVectorStore(storage_, std::move(data), pq_m_);
  } else {
    // Partition by id: global row g lands in shard g % S at local row
    // g / S, so the per-shard ids stay dense and globally recoverable.
    std::vector<std::unique_ptr<FloatMatrix>> parts;
    parts.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      parts.push_back(std::make_unique<FloatMatrix>(0, dim_));
    }
    const FloatMatrix& src = *data;
    for (size_t g = 0; g < src.rows(); ++g) {
      parts[g % num_shards]->AppendRow(src.row(g), src.cols());
    }
    // Replay the tombstones in erasure order so each shard's LIFO
    // free-list recycles in the same relative order the source would.
    for (const uint32_t g : src.free_slots()) {
      Status erased = parts[g % num_shards]->EraseRow(LocalOfId(g));
      assert(erased.ok());
      (void)erased;
    }
    for (size_t s = 0; s < num_shards; ++s) {
      shards_[s]->store =
          MakeVectorStore(storage_, std::move(parts[s]), pq_m_);
    }
  }
  for (auto& shard : shards_) {
    shard->data = &shard->store->matrix();
    shard->approx_rows.store(shard->data->rows(), std::memory_order_relaxed);
    shard->approx_free.store(shard->data->free_slots().size(),
                             std::memory_order_relaxed);
  }
}

Collection::~Collection() {
  {
    std::lock_guard lock(bg_mutex_);
    closing_ = true;
  }
  WaitForRebuilds();
}

Result<std::unique_ptr<Collection>> Collection::FromSpec(
    const std::string& spec, std::unique_ptr<FloatMatrix> data,
    exec::TaskExecutor* executor) {
  static const char* kGrammar =
      "collection spec grammar: \"collection[,shards=N][,rebuild=inline|"
      "background][,storage=fp32|sq8|pq][,m=M][,rerank=N]"
      "[,durability=PATH][,compact_threshold=R][,wal_sync=N]: INDEX_SPEC (; "
      "INDEX_SPEC)*\", e.g. \"collection,shards=4,storage=pq,m=16:"
      " DB-LSH,c=1.5; PM-LSH,rebuild_threshold=500\"";
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "missing \"collection:\" prefix in \"" + spec + "\"; " + kGrammar);
  }
  auto prefix = IndexFactory::Spec::Parse(text::Trim(spec.substr(0, colon)));
  if (!prefix.ok()) return prefix.status();
  if (!text::EqualsIgnoreCase(text::Trim(prefix.value().name()),
                              "collection")) {
    return Status::InvalidArgument(
        "missing \"collection:\" prefix in \"" + spec + "\"; " + kGrammar);
  }
  CollectionOptions options;
  options.executor = executor;
  std::string rebuild_mode;
  std::string storage_name;
  SpecReader reader(prefix.value());
  reader.Key("shards", &options.shards);
  reader.Key("rebuild", &rebuild_mode);
  reader.Key("storage", &storage_name);
  reader.Key("m", &options.pq_m);
  reader.Key("rerank", &options.rerank);
  reader.Key("durability", &options.durability_dir);
  reader.Key("compact_threshold", &options.compact_threshold);
  reader.Key("wal_sync", &options.wal_sync);
  DBLSH_RETURN_IF_ERROR(reader.Finish());
  if (options.shards == 0) {
    return Status::InvalidArgument(
        "collection key \"shards\" must be >= 1; " + std::string(kGrammar));
  }
  if (rebuild_mode == "background") {
    options.background_rebuild = true;
  } else if (!rebuild_mode.empty() && rebuild_mode != "inline") {
    return Status::InvalidArgument(
        "collection key \"rebuild\" expects inline or background, got \"" +
        rebuild_mode + "\"");
  }
  if (!storage_name.empty()) {
    auto kind = ParseStorageKind(storage_name);
    if (!kind.ok()) return kind.status();
    options.storage = kind.value();
  }
  // Presence comes from the spec itself, so every value of m given is
  // checked, 0 and 2^64-1 included.
  const bool has_m = prefix.value().values().count("m") > 0;
  if (has_m && options.storage != StorageKind::kPq) {
    return Status::InvalidArgument(
        "collection key \"m\" requires storage=pq; " + std::string(kGrammar));
  }
  if (options.pq_m == 0) {
    return Status::InvalidArgument(
        "collection key \"m\" must be >= 1; " + std::string(kGrammar));
  }
  // m must fit the rows' dimension: the seed's, or the durable state's on
  // recovery. A seed without columns fixes no dimension, so there only an
  // explicit m is refused.
  auto check_m = [&](size_t dim) -> Status {
    if (options.storage != StorageKind::kPq || options.pq_m <= dim ||
        (dim == 0 && !has_m)) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        "collection key \"m\" (" + std::to_string(options.pq_m) +
        ") must be <= the vector dimension (" + std::to_string(dim) + ")");
  };
  if (options.rerank == 0) {
    return Status::InvalidArgument(
        "collection key \"rerank\" must be >= 1; " + std::string(kGrammar));
  }
  if (options.compact_threshold < 0.0 || options.compact_threshold >= 1.0) {
    return Status::InvalidArgument(
        "collection key \"compact_threshold\" must be in [0, 1); " +
        std::string(kGrammar));
  }
  if (options.wal_sync == 0) {
    return Status::InvalidArgument(
        "collection key \"wal_sync\" must be >= 1; " + std::string(kGrammar));
  }
  if (options.durability_dir.empty() &&
      (options.compact_threshold > 0.0 || options.wal_sync != 1)) {
    return Status::InvalidArgument(
        "collection keys \"compact_threshold\" and \"wal_sync\" require "
        "\"durability=PATH\"");
  }

  std::unique_ptr<Collection> collection;
  if (!options.durability_dir.empty()) {
    auto manifest = durability::LoadManifest(options.durability_dir);
    if (manifest.ok()) {
      // Recover: the directory is the source of truth; seeding rows over
      // existing durable state would silently fork it.
      if (data != nullptr && data->rows() > 0) {
        return Status::InvalidArgument(
            "durability directory \"" + options.durability_dir +
            "\" already holds a checkpoint; open it without seed data (or "
            "point durability= at a fresh directory)");
      }
      const durability::Manifest& m = manifest.value();
      if (m.shards != options.shards) {
        return Status::InvalidArgument(
            "spec says shards=" + std::to_string(options.shards) +
            " but the durable state at \"" + options.durability_dir +
            "\" has " + std::to_string(m.shards) + " shards");
      }
      if (m.storage != static_cast<uint32_t>(options.storage)) {
        return Status::InvalidArgument(
            "spec storage=" + std::string(StorageKindName(options.storage)) +
            " does not match the durable state at \"" +
            options.durability_dir + "\"");
      }
      DBLSH_RETURN_IF_ERROR(check_m(m.dim));
      collection = std::make_unique<Collection>(m.dim, options);
      DBLSH_RETURN_IF_ERROR(collection->RecoverShards(options, m));
    } else if (manifest.status().code() == StatusCode::kNotFound) {
      // Fresh durable collection: seed rows define the geometry.
      if (data == nullptr) {
        return Status::NotFound(
            "durability directory \"" + options.durability_dir +
            "\" holds no durable state (no manifest) and no seed data was "
            "provided; seed a fresh collection or point durability= at an "
            "existing one");
      }
      DBLSH_RETURN_IF_ERROR(check_m(data->cols()));
      collection = std::make_unique<Collection>(std::move(data), options);
      DBLSH_RETURN_IF_ERROR(collection->InitDurability(options));
    } else {
      return manifest.status();  // corrupt manifest: never clobber
    }
  } else {
    if (data == nullptr) {
      return Status::InvalidArgument(
          "FromSpec needs seed data (a RAM-only collection cannot recover "
          "from disk); pass an empty FloatMatrix to start empty");
    }
    DBLSH_RETURN_IF_ERROR(check_m(data->cols()));
    collection = std::make_unique<Collection>(std::move(data), options);
  }
  const std::string body = spec.substr(colon + 1);
  size_t added = 0;
  size_t pos = 0;
  while (pos <= body.size()) {
    const size_t semi = body.find(';', pos);
    const std::string part = text::Trim(
        body.substr(pos, semi == std::string::npos ? std::string::npos
                                                   : semi - pos));
    pos = (semi == std::string::npos) ? body.size() + 1 : semi + 1;
    if (part.empty()) {
      return Status::InvalidArgument("empty index spec in \"" + spec +
                                     "\"; " + std::string(kGrammar));
    }
    DBLSH_RETURN_IF_ERROR(collection->AddIndex(part));
    ++added;
  }
  if (added == 0) {
    return Status::InvalidArgument("collection spec names no indexes; " +
                                   std::string(kGrammar));
  }
  return collection;
}

Result<std::unique_ptr<Collection>> Collection::Open(
    const std::string& spec, exec::TaskExecutor* executor) {
  if (spec.find("durability") == std::string::npos) {
    return Status::InvalidArgument(
        "Collection::Open requires a spec with durability=PATH (there is "
        "no on-disk state to open otherwise)");
  }
  return FromSpec(spec, nullptr, executor);
}

Status Collection::AddIndex(const std::string& index_spec) {
  auto parsed = IndexFactory::Spec::Parse(index_spec);
  if (!parsed.ok()) return parsed.status();
  const IndexFactory::Spec& spec = parsed.value();

  // Peel off the slot-level keys before the factory sees the spec.
  std::string slot_name;
  size_t rebuild_threshold = kDefaultRebuildThreshold;
  std::string method_spec = spec.name();
  for (const auto& [key, value] : spec.values()) {
    if (key == "name") {
      slot_name = value;
      continue;
    }
    if (key == "rebuild_threshold") {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || value.front() == '-') {
        return Status::InvalidArgument(
            "collection key \"rebuild_threshold\" expects a non-negative "
            "integer, got \"" + value + "\"");
      }
      rebuild_threshold = std::max<size_t>(1, static_cast<size_t>(n));
      continue;
    }
    method_spec += "," + key + "=" + value;
  }

  // One instance per shard (each shard indexes its own partition).
  const size_t num_shards = shards_.size();
  std::vector<std::unique_ptr<AnnIndex>> instances;
  instances.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto made = IndexFactory::Make(method_spec);
    if (!made.ok()) return made.status();
    instances.push_back(std::move(made).value());
  }
  if (slot_name.empty()) slot_name = instances[0]->Name();

  // Write transaction over every shard; ascending order keeps concurrent
  // AddIndex calls deadlock-free against the single-shard writers.
  std::vector<std::unique_lock<WriterPriorityMutex>> locks;
  locks.reserve(num_shards);
  for (auto& shard : shards_) locks.emplace_back(shard->mutex);
  for (const Slot& slot : shards_[0]->slots) {
    if (slot.name == slot_name) {
      return Status::InvalidArgument(
          "collection already has an index named \"" + slot_name +
          "\"; disambiguate with a name= spec key");
    }
  }

  // First builds of the non-empty shards run in parallel on the executor
  // (the build bodies take no locks; the caller holds them all). Under
  // quantized storage each shard materializes a decoded fp32 view for the
  // duration of its build — builds read matrix().row(), stores keep codes.
  std::vector<Status> builds(num_shards, Status::OK());
  executor_->ParallelFor(num_shards, [&](size_t s) {
    if (shards_[s]->data->live_rows() > 0) {
      ScopedDecodeView view(shards_[s]->store.get());
      builds[s] = instances[s]->Build(shards_[s]->data);
    }
  });
  for (const Status& status : builds) {
    if (!status.ok()) return status;  // nothing published on any shard
  }

  for (size_t s = 0; s < num_shards; ++s) {
    Slot slot;
    slot.name = slot_name;
    slot.method_spec = method_spec;
    slot.index = std::move(instances[s]);
    slot.built = shards_[s]->data->live_rows() > 0;
    slot.rebuild_threshold = rebuild_threshold;
    // Empty shard: stay unbuilt; the shard's first mutation triggers the
    // lazy build (MaybeRebuildLocked).
    shards_[s]->slots.push_back(std::move(slot));
  }
  return Status::OK();
}

Status Collection::AddPrebuiltIndex(const std::string& name,
                                    std::unique_ptr<AnnIndex> index,
                                    size_t rebuild_threshold) {
  if (index == nullptr) {
    return Status::InvalidArgument("AddPrebuiltIndex: index is null");
  }
  if (shards_.size() > 1) {
    return Status::InvalidArgument(
        "AddPrebuiltIndex requires shards=1: a prebuilt index speaks the "
        "global id space, which only matches shard 0 of an unsharded "
        "collection");
  }
  if (quantized_) {
    return Status::InvalidArgument(
        "AddPrebuiltIndex requires storage=fp32: a prebuilt index holds "
        "state computed over the fp32 payload the quantized store has "
        "released; load into an fp32 collection or AddIndex to rebuild "
        "from codes");
  }
  Shard& shard = *shards_[0];
  std::unique_lock lock(shard.mutex);
  for (const Slot& slot : shard.slots) {
    if (slot.name == name) {
      return Status::InvalidArgument(
          "collection already has an index named \"" + name + "\"");
    }
  }
  Slot slot;
  slot.name = name;
  slot.index = std::move(index);
  slot.built = true;
  slot.rebuild_threshold = std::max<size_t>(1, rebuild_threshold);
  shard.slots.push_back(std::move(slot));
  return Status::OK();
}

size_t Collection::size() const {
  size_t live = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    live += shard->data->live_rows();
  }
  return live;
}

size_t Collection::dim() const { return dim_; }

uint64_t Collection::epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

std::vector<CollectionIndexInfo> Collection::Indexes() const {
  // Shared locks over every shard, ascending (consistent with AddIndex).
  std::vector<std::shared_lock<WriterPriorityMutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  std::vector<CollectionIndexInfo> infos;
  infos.reserve(shards_[0]->slots.size());
  for (size_t i = 0; i < shards_[0]->slots.size(); ++i) {
    const Slot& first = shards_[0]->slots[i];
    CollectionIndexInfo info;
    info.name = first.name;
    info.method = first.index->Name();
    info.supports_updates = first.index->SupportsUpdates();
    info.rebuild_threshold = first.rebuild_threshold;
    // Built aggregate: some shard's instance serves, and no shard that has
    // content is left unbuilt. (A slot over an empty shard serves that
    // shard's zero rows exactly; it does not count against the aggregate.)
    bool any_built = false;
    bool all_nonempty_built = true;
    for (const auto& shard : shards_) {
      const Slot& slot = shard->slots[i];
      if (slot.built) any_built = true;
      if (!slot.built && shard->data->live_rows() > 0) {
        all_nonempty_built = false;
      }
      info.staleness = std::max(info.staleness, slot.staleness);
      info.rebuilds += slot.rebuilds;
      info.rebuild_inflight = info.rebuild_inflight || slot.rebuild_scheduled;
      if (info.build_error.empty()) info.build_error = slot.build_error;
    }
    info.built = any_built && all_nonempty_built;
    infos.push_back(std::move(info));
  }
  return infos;
}

const AnnIndex* Collection::GetIndex(const std::string& name,
                                     size_t shard_index) const {
  if (shard_index >= shards_.size()) return nullptr;
  const Shard& shard = *shards_[shard_index];
  std::shared_lock lock(shard.mutex);
  for (const Slot& slot : shard.slots) {
    if (slot.name == name) return slot.index.get();
  }
  return nullptr;
}

FloatMatrix Collection::Snapshot() const {
  const size_t num_shards = shards_.size();
  if (num_shards == 1) {
    std::shared_lock lock(shards_[0]->mutex);
    // DecodedCopy: the byte-identical matrix copy for fp32, the store's
    // fp32 reconstruction (same ids/tombstones) for quantized backends.
    return shards_[0]->store->DecodedCopy();
  }
  // Consistent cut: shared locks over every shard while re-assembling the
  // global id space (mutations are single-shard, so this is the same
  // guarantee a fan-out search sees, made simultaneous).
  std::vector<std::shared_lock<WriterPriorityMutex>> locks;
  locks.reserve(num_shards);
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  size_t rows = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t shard_rows = shards_[s]->data->rows();
    if (shard_rows > 0) {
      rows = std::max(rows, (shard_rows - 1) * num_shards + s + 1);
    }
  }
  FloatMatrix out(rows, dim_);
  for (size_t g = 0; g < rows; ++g) {
    const Shard& shard = *shards_[g % num_shards];
    const uint32_t local = LocalOfId(static_cast<uint32_t>(g));
    if (local < shard.data->rows()) {
      // DecodeRow instead of a raw row copy: quantized stores hold codes,
      // not fp32 payload (for fp32 this is the same copy as before).
      shard.store->DecodeRow(local, out.mutable_row(g));
    }
  }
  for (size_t g = 0; g < rows; ++g) {
    const Shard& shard = *shards_[g % num_shards];
    const uint32_t local = LocalOfId(static_cast<uint32_t>(g));
    // Ids past a shard's frontier were never assigned; report them (and
    // genuine tombstones) as erased so oracle scans skip them.
    if (local >= shard.data->rows() || shard.data->IsDeleted(local)) {
      Status erased = out.EraseRow(g);
      assert(erased.ok());
      (void)erased;
    }
  }
  return out;
}

CollectionStorageInfo Collection::Storage() const {
  // Shared locks over every shard, ascending (consistent with Indexes()).
  std::vector<std::shared_lock<WriterPriorityMutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);

  CollectionStorageInfo info;
  info.kind = StorageKindName(storage_);
  info.bytes_per_vector = shards_[0]->store->bytes_per_vector();
  info.rerank = quantized_ ? rerank_ : 0;
  info.shard_resident_bytes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const size_t bytes = shard->store->resident_bytes();
    info.shard_resident_bytes.push_back(bytes);
    info.resident_bytes += bytes;
  }
  return info;
}

}  // namespace dblsh
