#include "replication/replica.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "durability/snapshot.h"
#include "replication/feed.h"

namespace dblsh::replication {

namespace {

std::string PrimaryAddress(const ReplicaOptions& options) {
  return options.primary_host + ":" + std::to_string(options.primary_port);
}

}  // namespace

Result<std::unique_ptr<Replica>> Replica::Start(const ReplicaOptions& options) {
  if (options.spec.empty() || options.dir.empty()) {
    return Status::InvalidArgument(
        "replica: spec and durability dir are required");
  }
  std::unique_ptr<Replica> replica(new Replica(options));

  // Local state first: a restarted replica recovers its own snapshots +
  // WAL exactly like a crashed primary would, then resumes the streams
  // from the recovered LSNs.
  {
    auto local = Collection::Open(options.spec, options.executor);
    if (local.ok()) {
      replica->collection_ = std::move(local.value());
    } else if (local.status().code() != StatusCode::kNotFound) {
      return local.status();
    }
  }

  for (int attempt = 0;; ++attempt) {
    if (replica->collection_ == nullptr) {
      Status s = replica->Bootstrap();
      if (!s.ok()) return s;
    }
    const size_t nshards = replica->collection_->shards();
    const std::vector<uint64_t> applied =
        replica->collection_->ShardAppliedLsns();
    replica->tails_.clear();
    bool stale = false;
    for (size_t shard = 0; shard < nshards && !stale; ++shard) {
      auto connected =
          serve::Client::Connect(options.primary_host, options.primary_port);
      if (!connected.ok()) return connected.status();
      auto tail = std::make_unique<ShardTail>();
      tail->client = std::move(connected.value());
      serve::SubscribeAck ack;
      Status s = tail->client->Subscribe(options.collection,
                                         static_cast<uint32_t>(shard),
                                         applied[shard], false, &ack);
      if (!s.ok()) return s;
      if (ack.shards != nshards || ack.dim != replica->collection_->dim()) {
        return Status::InvalidArgument(
            "replica: local spec geometry (" + std::to_string(nshards) +
            " shards, dim " + std::to_string(replica->collection_->dim()) +
            ") differs from primary (" + std::to_string(ack.shards) +
            " shards, dim " + std::to_string(ack.dim) + ")");
      }
      if (ack.mode == kFeedModeSnapshot) {
        stale = true;  // primary checkpointed past our position
        break;
      }
      tail->primary_lsn.store(ack.shard_lsn, std::memory_order_relaxed);
      replica->tails_.push_back(std::move(tail));
    }
    if (!stale) break;
    if (attempt + 1 >= options.bootstrap_attempts) {
      return Status::Unavailable(
          "replica: primary keeps checkpointing past the bootstrapped "
          "position");
    }
    // Too stale to tail: drop the local state and re-seed from scratch.
    replica->tails_.clear();
    replica->collection_.reset();
  }

  replica->collection_->SetReadOnly(PrimaryAddress(options));
  const size_t nshards = replica->collection_->shards();
  replica->tail_pool_ = std::make_unique<exec::TaskExecutor>(nshards);
  replica->tasks_running_ = nshards;
  Replica* raw = replica.get();
  for (size_t shard = 0; shard < nshards; ++shard) {
    replica->tail_pool_->Schedule([raw, shard] { raw->TailShard(shard); });
  }
  return replica;
}

Replica::~Replica() {
  Stop();
  // tail_pool_ destruction joins the (already finished) tasks.
}

void Replica::Stop() {
  stop_.store(true, std::memory_order_release);
  std::unique_lock lock(mutex_);
  tasks_cv_.wait(lock, [&] { return tasks_running_ == 0; });
}

serve::ReplicationReport Replica::Report() const {
  serve::ReplicationReport report;
  report.primary = PrimaryAddress(options_);
  report.records_applied = records_applied_.load(std::memory_order_relaxed);
  const std::vector<uint64_t> applied = collection_->ShardAppliedLsns();
  report.shards.resize(applied.size());
  for (size_t s = 0; s < applied.size(); ++s) {
    report.shards[s].applied_lsn = applied[s];
    const uint64_t watermark =
        s < tails_.size()
            ? tails_[s]->primary_lsn.load(std::memory_order_relaxed)
            : 0;
    // The watermark only moves on stream traffic; the local LSN can be
    // momentarily ahead of it, never meaningfully behind.
    report.shards[s].primary_lsn = std::max(watermark, applied[s]);
    report.shards[s].records_applied =
        s < tails_.size()
            ? tails_[s]->records_applied.load(std::memory_order_relaxed)
            : 0;
  }
  return report;
}

std::string Replica::FirstError() const {
  std::lock_guard lock(mutex_);
  for (const auto& tail : tails_) {
    if (!tail->error.empty()) return tail->error;
  }
  return "";
}

Status Replica::Bootstrap() {
  // The directory may hold stale or partial state from a previous life;
  // the snapshot stream replaces it wholesale.
  std::error_code ec;
  std::filesystem::remove_all(options_.dir, ec);
  Status s = durability::EnsureDir(options_.dir);
  if (!s.ok()) return s;

  auto connected =
      serve::Client::Connect(options_.primary_host, options_.primary_port);
  if (!connected.ok()) return connected.status();
  serve::Client* client = connected.value().get();

  uint32_t nshards = 0;
  uint32_t dim = 0;
  uint32_t storage = 0;
  uint64_t checkpoint_lsn = 0;
  // One connection streams every shard sequentially: each snapshot
  // stream ends at its last chunk and the connection returns to request
  // mode for the next Subscribe.
  for (uint32_t shard = 0;; ++shard) {
    serve::SubscribeAck ack;
    s = client->Subscribe(options_.collection, shard, 0,
                          /*need_snapshot=*/true, &ack);
    if (!s.ok()) return s;
    if (shard == 0) {
      if (ack.shards == 0) {
        return Status::Corruption("replica: primary reports zero shards");
      }
      nshards = ack.shards;
      dim = ack.dim;
      storage = ack.storage;
    }
    if (ack.mode != kFeedModeSnapshot) {
      return Status::Corruption(
          "replica: primary refused snapshot mode during bootstrap");
    }
    checkpoint_lsn = std::max(checkpoint_lsn, ack.snapshot_lsn);

    const std::string path = durability::SnapshotPath(options_.dir, shard);
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("replica: cannot write " + tmp);
    for (bool done = false; !done;) {
      serve::ReplicationEvent event;
      s = client->ReceiveReplicationEvent(dim, &event, &stop_);
      if (!s.ok()) return s;
      if (event.kind != serve::ReplicationEvent::Kind::kSnapshotChunk) {
        return Status::Corruption(
            "replica: unexpected frame inside a snapshot stream");
      }
      if (!event.bytes.empty()) {
        out.write(reinterpret_cast<const char*>(event.bytes.data()),
                  static_cast<std::streamsize>(event.bytes.size()));
        if (!out) return Status::IoError("replica: short write to " + tmp);
      }
      done = event.last;
    }
    out.close();
    if (!out) return Status::IoError("replica: cannot finish " + tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      return Status::IoError("replica: cannot rename " + tmp);
    }
    if (shard + 1 == nshards) break;
  }

  durability::Manifest manifest;
  manifest.shards = nshards;
  manifest.dim = dim;
  manifest.storage = storage;
  manifest.wal_seq = 1;  // no local segments yet; recovery replays nothing
  manifest.checkpoint_lsn = checkpoint_lsn;
  s = durability::SaveManifest(options_.dir, manifest);
  if (!s.ok()) return s;

  // The snapshot files were shipped verbatim and are self-checksummed:
  // opening through the normal recovery path both verifies them and
  // rebuilds exactly the state a crash-recovered primary would have.
  auto opened = Collection::Open(options_.spec, options_.executor);
  if (!opened.ok()) return opened.status();
  collection_ = std::move(opened.value());
  if (collection_->shards() != nshards || collection_->dim() != dim) {
    return Status::InvalidArgument(
        "replica: local spec geometry differs from the primary's (" +
        std::to_string(nshards) + " shards, dim " + std::to_string(dim) +
        ")");
  }
  return Status::OK();
}

bool Replica::BackoffSleep(int ms) {
  const auto slice = std::chrono::milliseconds(20);
  auto remaining = std::chrono::milliseconds(ms);
  while (remaining.count() > 0) {
    if (stop_.load(std::memory_order_acquire)) return false;
    std::this_thread::sleep_for(std::min<std::chrono::milliseconds>(
        slice, remaining));
    remaining -= slice;
  }
  return !stop_.load(std::memory_order_acquire);
}

void Replica::TailShard(size_t shard) {
  ShardTail& tail = *tails_[shard];
  const uint32_t dim = static_cast<uint32_t>(collection_->dim());
  std::string fatal;
  while (!stop_.load(std::memory_order_acquire) && fatal.empty()) {
    if (tail.client == nullptr) {
      // Reconnect and resume from whatever this shard has applied —
      // records already applied (and re-logged locally) are skipped by
      // LSN on redelivery.
      auto connected = serve::Client::Connect(options_.primary_host,
                                              options_.primary_port);
      if (!connected.ok()) {
        if (!BackoffSleep(options_.reconnect_backoff_ms)) break;
        continue;
      }
      serve::SubscribeAck ack;
      const uint64_t from = collection_->ShardAppliedLsns()[shard];
      Status s = connected.value()->Subscribe(options_.collection,
                                              static_cast<uint32_t>(shard),
                                              from, false, &ack);
      if (!s.ok()) {
        if (!BackoffSleep(options_.reconnect_backoff_ms)) break;
        continue;
      }
      if (ack.mode == kFeedModeSnapshot) {
        fatal =
            "shard " + std::to_string(shard) +
            ": primary checkpointed past this replica while it was "
            "disconnected; restart the replica to re-seed";
        break;
      }
      tail.client = std::move(connected.value());
      tail.primary_lsn.store(ack.shard_lsn, std::memory_order_relaxed);
    }

    serve::ReplicationEvent event;
    Status s = tail.client->ReceiveReplicationEvent(dim, &event, &stop_);
    if (!s.ok()) {
      if (stop_.load(std::memory_order_acquire)) break;
      tail.client.reset();  // disconnect (or stream error): resubscribe
      if (!BackoffSleep(options_.reconnect_backoff_ms)) break;
      continue;
    }
    if (event.kind != serve::ReplicationEvent::Kind::kWalRecords) {
      fatal = "shard " + std::to_string(shard) +
              ": unexpected snapshot chunk on a tail stream";
      break;
    }
    tail.primary_lsn.store(event.watermark_lsn, std::memory_order_relaxed);
    for (const durability::WalRecord& rec : event.records) {
      Status applied = collection_->ApplyReplicatedRecord(shard, rec);
      if (applied.ok()) {
        tail.records_applied.fetch_add(1, std::memory_order_relaxed);
        records_applied_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (applied.code() == StatusCode::kCorruption) {
        fatal = "shard " + std::to_string(shard) +
                " diverged: " + applied.ToString();
        break;
      }
      // Transient apply failure (e.g. an injected fault): the record was
      // neither applied nor logged, so drop the stream and resume from
      // the applied LSN — the primary redelivers it.
      tail.client.reset();
      (void)BackoffSleep(options_.reconnect_backoff_ms);
      break;
    }
  }
  std::lock_guard lock(mutex_);
  if (!fatal.empty() && tail.error.empty()) tail.error = fatal;
  --tasks_running_;
  tasks_cv_.notify_all();
}

}  // namespace dblsh::replication
