#ifndef DBLSH_SERVE_CLIENT_H_
#define DBLSH_SERVE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query.h"
#include "dataset/float_matrix.h"
#include "durability/wal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/status.h"

namespace dblsh::serve {

/// Client construction knobs.
struct ClientOptions {
  /// TCP connect timeout.
  int connect_timeout_ms = 5000;
  /// Response frames whose payload_len exceeds this are rejected as a
  /// protocol error before any allocation — mirrors the server's gate so
  /// a misbehaving or spoofed server cannot force a multi-GiB buffer.
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
};

/// One Search answer: the neighbors plus the size of the server-side
/// batch the query was coalesced into (≥2 means it shared a
/// SearchBatch with concurrent peers).
struct SearchReply {
  QueryResponse response;
  uint32_t batch_size = 0;
};

/// Per-collection counters reported by Stats.
struct RemoteCollectionStats {
  std::string name;
  uint64_t live_vectors = 0;
  uint64_t epoch = 0;
  uint32_t shards = 0;
  std::string storage;           ///< storage backend ("fp32" | "sq8" | "pq")
  uint64_t bytes_per_vector = 0; ///< payload bytes per vector slot
  uint64_t resident_bytes = 0;   ///< store heap bytes, summed over shards
  uint32_t rerank = 0;           ///< re-rank multiplier (0 when fp32)
  bool durable = false;          ///< collection has a durability directory
  uint64_t checkpoints = 0;      ///< completed checkpoints since open
  uint64_t compactions = 0;      ///< completed tombstone compactions
  uint64_t wal_appends = 0;      ///< WAL records appended since open
  uint64_t replayed_records = 0; ///< WAL records replayed at last open
  double recovery_ms = 0.0;      ///< wall time of the last recovery
};

/// Full Stats answer: per-collection state + the server counters.
struct RemoteStats {
  std::vector<RemoteCollectionStats> collections;
  ServerStats server;
};

/// The Subscribe acknowledgement: the primary's collection geometry (a
/// follower validates its local spec against it) plus the stream mode the
/// feed decided.
struct SubscribeAck {
  uint32_t shards = 0;
  uint32_t dim = 0;
  uint8_t storage = 0;  ///< StorageKind value (the manifest's)
  uint8_t mode = 0;     ///< replication::kFeedModeTail / kFeedModeSnapshot
  uint64_t snapshot_lsn = 0;  ///< the shard snapshot's LSN
  uint64_t shard_lsn = 0;     ///< primary's applied LSN for the shard
};

/// One frame of a replication stream (after a Subscribe ack): either a
/// snapshot chunk (bootstrap) or a WAL-record batch with the primary's
/// watermark (tail; an empty batch is an idle heartbeat).
struct ReplicationEvent {
  enum class Kind { kSnapshotChunk, kWalRecords };
  Kind kind = Kind::kWalRecords;
  uint32_t shard = 0;
  // kSnapshotChunk fields.
  uint64_t total_bytes = 0;
  uint64_t offset = 0;
  bool last = false;
  std::vector<uint8_t> bytes;
  // kWalRecords fields.
  uint64_t watermark_lsn = 0;
  std::vector<durability::WalRecord> records;
};

/// Blocking client for the framed-TCP serving protocol. One instance owns
/// one connection:
///
///   auto client = serve::Client::Connect("127.0.0.1", port).value();
///   auto reply = client->Search("main", query, dim, request);
///
/// Errors mirror the wire statuses through protocol.h's ToStatus mapping:
/// a shed request surfaces as Status::Unavailable (retryable()), an
/// expired budget as Status::DeadlineExceeded.
///
/// Thread-safety: the RPC methods serialize internally, so the client may
/// be shared — but responses are read in request order, so sharing one
/// connection serializes the callers' round-trips. For concurrency use
/// one client per thread, or the pipelined SendSearch/ReceiveSearchReply
/// pair (one sender thread + one receiver thread; the two directions of
/// the socket are independent).
class Client {
 public:
  /// Connects (IPv4 dotted quad; empty host = loopback). A server at its
  /// connection cap answers the connect with a retryable
  /// Status::Unavailable here or on the first RPC.
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port, const ClientOptions& = {});

  /// Closes the connection.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Liveness round-trip.
  Status Ping();

  /// One k-NN query against the named collection. `deadline_us` is the
  /// request's server-side budget in microseconds (0 = none): the server
  /// answers DeadlineExceeded without executing once it elapses.
  Result<SearchReply> Search(const std::string& collection,
                             const float* query, size_t dim,
                             const QueryRequest& request,
                             uint32_t deadline_us = 0);

  /// Pre-formed batch of queries, dispatched server-side as one
  /// SearchBatch (no coalescing window).
  Result<std::vector<QueryResponse>> SearchBatch(
      const std::string& collection, const FloatMatrix& queries,
      const QueryRequest& request, uint32_t deadline_us = 0);

  /// Inserts a new vector; returns its assigned id.
  Result<uint32_t> Upsert(const std::string& collection, const float* vec,
                          size_t dim);

  /// Inserts or replaces the vector under `id`; returns the id.
  Result<uint32_t> Upsert(const std::string& collection, uint32_t id,
                          const float* vec, size_t dim);

  /// Tombstones one id.
  Status Delete(const std::string& collection, uint32_t id);

  /// Server + per-collection counters.
  Result<RemoteStats> Stats();

  /// Forces a durable checkpoint (snapshot + WAL rotation) of the named
  /// collection. Fails with InvalidArgument when the collection was not
  /// opened with a durability directory.
  Status Checkpoint(const std::string& collection);

  /// Attaches this connection to one shard's replication feed. After an
  /// OK ack the connection becomes a one-way stream read with
  /// ReceiveReplicationEvent: snapshot mode (`ack->mode`) delivers
  /// kSnapshotChunk frames until the `last` chunk, then the connection
  /// returns to request mode; tail mode delivers kWalRecords frames until
  /// disconnect. `need_snapshot` forces snapshot mode (a follower with no
  /// local state); otherwise the feed compares `from_lsn` against its
  /// snapshot LSN. Use a dedicated Client per subscription.
  Status Subscribe(const std::string& collection, uint32_t shard,
                   uint64_t from_lsn, bool need_snapshot, SubscribeAck* ack);

  /// Blocks for the next stream frame after a Subscribe. `dim` is the
  /// collection dimensionality (from the ack) used to decode upsert
  /// payloads; `stop` (optional) aborts the wait with
  /// Status::Unavailable("stopped") when set, so a replica can shut down
  /// a quiet tail without closing the socket from another thread.
  Status ReceiveReplicationEvent(uint32_t dim, ReplicationEvent* event,
                                 const std::atomic<bool>* stop = nullptr);

  /// Replication role + per-shard LSN report of the named collection.
  /// The reply mirrors serve::ReplicationReport, plus the peer's role and
  /// its shipped/applied record counters.
  struct ReplicaStatusReply {
    uint8_t role = 0;  ///< 0 = primary, 1 = replica
    std::string primary;  ///< "host:port" a replica follows (empty: primary)
    uint64_t records_shipped = 0;
    uint64_t records_applied = 0;
    std::vector<ReplicationShardReport> shards;
  };
  /// Fetches the replication report (see ReplicaStatusReply).
  Result<ReplicaStatusReply> ReplicaStatus(const std::string& collection);

  /// Pipelined send half: writes one Search request WITHOUT waiting for
  /// the response and returns its request_id. Pair with
  /// ReceiveSearchReply from a receiver thread (open-loop load
  /// generation: keeps many requests in flight on one connection, which
  /// is what gives the server's coalescer companions to batch).
  Result<uint64_t> SendSearch(const std::string& collection,
                              const float* query, size_t dim,
                              const QueryRequest& request,
                              uint32_t deadline_us = 0);

  /// Pipelined receive half: blocks for the next response frame and
  /// returns (request_id, reply). A typed per-request rejection
  /// (deadline, shed) is reported in `status` with the id still valid;
  /// a connection-level failure returns a failed Result.
  struct PipelinedReply {
    uint64_t request_id = 0;
    Status status;  ///< the request's outcome
    SearchReply reply;
  };
  /// Blocks for the next pipelined response frame (see PipelinedReply).
  Result<PipelinedReply> ReceiveSearchReply();

 private:
  Client(int fd, uint32_t max_payload_bytes)
      : fd_(fd), max_payload_bytes_(max_payload_bytes) {}

  /// Writes one frame (serialized by send_mutex_).
  Status SendFrame(OpCode op, uint64_t request_id,
                   const std::vector<uint8_t>& payload);
  /// Reads one frame (serialized by recv_mutex_), validating header and
  /// checksum. `stop` aborts the blocking read (replication tails).
  Status ReceiveFrame(FrameHeader* header, std::vector<uint8_t>* payload,
                      const std::atomic<bool>* stop = nullptr);
  /// One blocking round-trip; fails on a connection-shed frame
  /// (request_id 0) or an id mismatch.
  Status Call(OpCode op, const std::vector<uint8_t>& request,
              std::vector<uint8_t>* response);

  int fd_;
  const uint32_t max_payload_bytes_;
  std::mutex send_mutex_;
  std::mutex recv_mutex_;
  uint64_t next_id_ = 1;  ///< guarded by send_mutex_
};

}  // namespace dblsh::serve

#endif  // DBLSH_SERVE_CLIENT_H_
