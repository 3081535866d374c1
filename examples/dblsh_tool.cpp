// dblsh_tool: command-line front end for the library, the workflow a
// downstream user runs without writing C++:
//
//   dblsh_tool methods
//   dblsh_tool gen   --out=data.fvecs --n=20000 --dim=64 [--clusters=32]
//   dblsh_tool dataset subset  --in=big.bvecs --out=small.fvecs --n=10000
//   dblsh_tool dataset randset --out=data.fvecs --n=20000 --dim=64
//   dblsh_tool build --data=data.fvecs --index=data.idx
//                    [--method="DB-LSH,c=1.5,l=5"]
//   dblsh_tool query --data=data.fvecs --queries=q.fvecs --k=10 [--gt]
//                    [--budget=T] [--threads=N]
//                    (--index=data.idx | --method="PM-LSH,m=8")
//   dblsh_tool collection upsert --data=data.fvecs --index=data.idx
//                                --vectors=v.fvecs
//   dblsh_tool collection delete --data=data.fvecs --index=data.idx
//                                --ids=3,17,42
//   dblsh_tool collection search --data=data.fvecs --queries=q.fvecs
//                                [--indexes="DB-LSH; LinearScan"]
//                                [--use=NAME] [--filter=deny:3,17] [--gt]
//   dblsh_tool stats --data=data.fvecs
//   dblsh_tool serve --data=data.fvecs [--indexes="DB-LSH"] [--port=0]
//                    [--collection=main] [--window-us=1000]
//                    [--duration-ms=0]
//   dblsh_tool serve --replicate-from=host:port --durability=DIR
//                    [--indexes="DB-LSH"] [--port=0]
//   dblsh_tool replication status --server=host:port
//   dblsh_tool ping --server=host:port
//   dblsh_tool collection search --server=host:port --queries=q.fvecs
//   dblsh_tool collection upsert --server=host:port --vectors=v.fvecs
//   dblsh_tool collection delete --server=host:port --ids=3,17,42
//   dblsh_tool stats --server=host:port
//
// `methods` lists every registered index method and its spec keys' home.
// `query` prints per-query neighbors; with --gt it also computes exact
// ground truth and reports recall / overall ratio. With --method the index
// is built in memory from the spec, so any registered method can serve the
// same workload (persistence via --index remains DB-LSH-family only).
//
// The `collection` subcommands drive the Collection façade
// (core/collection.h). `upsert` and `delete` mutate a persisted DB-LSH
// index in place — no rebuild: the collection sequences the dataset write
// and the structural update transactionally, and the touched files are
// rewritten on success. `search` serves any lineup of registered methods
// (`--indexes` is a ';'-separated list of factory specs) with optional
// per-query id filtering: `--filter=deny:IDS` excludes the ids,
// `--filter=allow:IDS` (or a bare id list) restricts results to them.
// `--shards=N`, `--storage=fp32|sq8|pq`, `--m=M` (pq only) and
// `--rerank=N` configure the collection itself (same flags on `serve`
// and `collection stats`): sq8 serves quantized rows at 1 byte/dim, pq at
// --m bytes/row via k-means codebooks + ADC tables; both re-rank with
// exact distances. `collection stats` reports the storage kind and
// bytes/vector uniformly for every backend, locally and via --server.
// `dataset subset` draws a seeded random sample out of an fvecs/bvecs
// file (converting between flavors as the extensions say) and `dataset
// randset` writes seeded synthetic rows — the quick way to cut
// pinned-scale inputs for benches and recall checks.
// Wherever the tool answers queries, `--threads=N`
// (default: the hardware concurrency) sizes the process task executor and
// the query fan-out; pass `--threads=1` when timing per-query latency.
//
// `serve` hosts a collection over the framed-TCP protocol (src/serve/):
// the coalescer micro-batches concurrent client searches into one
// SearchBatch. It runs until SIGINT/SIGTERM (or --duration-ms) and then
// drains gracefully. With `--replicate-from=H:P` the process comes up as
// a read replica of a running primary instead: it bootstraps (or locally
// recovers) its own durable copy under --durability=DIR, tails the
// primary's per-shard WAL streams, and serves reads only — writes are
// refused with the primary's address. `replication status --server=H:P`
// prints a peer's role and per-shard replication lag. The client side of the same commands activates with
// `--server=host:port`: `collection search/upsert/delete`, `stats`, and
// `ping` then talk to a running server instead of local files. Remote
// searches carry an optional `--deadline-ms` budget the server enforces
// before touching the index; `--gt`/`--filter` are local-only (the wire
// protocol does not ship the dataset or filter sets).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "core/db_lsh.h"
#include "exec/task_executor.h"
#include "core/index_factory.h"
#include "dataset/ground_truth.h"
#include "dataset/stats.h"
#include "dataset/synthetic.h"
#include "durability/snapshot.h"
#include "eval/metrics.h"
#include "replication/replica.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/perfmon.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/vecs.h"

namespace dblsh {
namespace {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "1";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }
  std::string Get(const std::string& key, const std::string& dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  double GetDouble(const std::string& key, double dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atof(it->second.c_str());
  }
  int64_t GetInt(const std::string& key, int64_t dflt) const {
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : std::atoll(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

// True when `path` names a `.bvecs` file (case-sensitive, like the rest
// of the TEXMEX ecosystem).
bool IsBvecsPath(const std::string& path) {
  const std::string ext = ".bvecs";
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

// Writes `count` rows of `dim` floats to `path` in the extension's vecs
// flavor: fvecs verbatim, bvecs rounded and clamped to [0, 255].
int WriteVecsRows(const std::string& path, const float* values, size_t count,
                  size_t dim) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  const bool bvecs = IsBvecsPath(path);
  const int32_t d = static_cast<int32_t>(dim);
  std::vector<uint8_t> bytes(bvecs ? dim : 0);
  bool ok = true;
  for (size_t i = 0; i < count && ok; ++i) {
    const float* row = values + i * dim;
    ok = std::fwrite(&d, sizeof(d), 1, out) == 1;
    if (!ok) break;
    if (bvecs) {
      for (size_t j = 0; j < dim; ++j) {
        const float v = std::nearbyint(row[j]);
        bytes[j] = static_cast<uint8_t>(v < 0.f ? 0.f : v > 255.f ? 255.f
                                                                  : v);
      }
      ok = std::fwrite(bytes.data(), 1, dim, out) == dim;
    } else {
      ok = std::fwrite(row, sizeof(float), dim, out) == dim;
    }
  }
  if (std::fclose(out) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return 1;
  }
  return 0;
}

// Reads an fvecs file into a FloatMatrix. Every command that reads one
// needs at least one row, so an empty file is Corruption too.
Result<FloatMatrix> LoadFvecs(const std::string& path) {
  auto read = util::ReadFvecs(path);
  if (!read.ok()) return read.status();
  util::FvecsData rows = std::move(read).value();
  if (rows.count() == 0) return Status::Corruption(path + ": no vectors");
  const size_t count = rows.count();
  return FloatMatrix(count, rows.dim, std::move(rows.values));
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dblsh_tool <methods|gen|dataset|build|query|collection|stats|"
      "serve|replication|ping> [--flags]\n"
      "  methods  list registered index methods for --method specs\n"
      "  gen    --out=F.fvecs --n=N --dim=D [--clusters=C] "
      "[--spread=S] [--seed=X]\n"
      "  dataset subset  --in=F.{fvecs|bvecs} --out=G.{fvecs|bvecs} --n=N "
      "[--seed=X]\n"
      "                  (seeded random N-row sample; flavors convert "
      "either way)\n"
      "  dataset randset --out=F.{fvecs|bvecs} --n=N --dim=D "
      "[--clusters=C] [--spread=S] [--seed=X]\n"
      "                  (synthetic rows: uniform, or clustered with "
      "--clusters)\n"
      "  build  --data=F.fvecs --index=F.idx [--method=SPEC] [--c=1.5] "
      "[--l=5] [--k=0] [--t=0]\n"
      "  query  --data=F.fvecs --queries=Q.fvecs (--index=F.idx | "
      "--method=SPEC) [--k=10] [--budget=T] [--threads=N] [--gt]\n"
      "  collection upsert --data=F.fvecs --index=F.idx "
      "--vectors=V.fvecs\n"
      "  collection delete --data=F.fvecs --index=F.idx --ids=3,17,42\n"
      "  collection search --data=F.fvecs --queries=Q.fvecs "
      "[--indexes=\"SPEC; SPEC\"] [--use=NAME]\n"
      "                    [--k=10] [--budget=T] [--threads=N] "
      "[--filter=[allow:|deny:]IDS] [--gt]\n"
      "                    [--shards=N] [--storage=fp32|sq8|pq] [--m=M] [--rerank=N]\n"
      "  collection stats --data=F.fvecs [--indexes=\"SPEC; SPEC\"] "
      "[--storage=fp32|sq8|pq] [--m=M] [--rerank=N]\n"
      "                   [--shards=N] | --server=H:P   (storage backend, "
      "bytes/vector, resident MiB)\n"
      "  collection open --durability=DIR [--indexes=\"SPEC; SPEC\"]   "
      "(recover + verify; nonzero on damage)\n"
      "  collection checkpoint (--server=H:P | --durability=DIR)\n"
      "  stats  --data=F.fvecs | --server=H:P\n"
      "  serve  --data=F.fvecs [--indexes=\"SPEC; SPEC\"] "
      "[--collection=main] [--host=A] [--port=0]\n"
      "         [--window-us=1000] [--max-batch=32] [--max-connections=32] "
      "[--threads=N] [--duration-ms=0]\n"
      "         [--shards=N] [--storage=fp32|sq8|pq] [--m=M] [--rerank=N]\n"
      "         [--durability=DIR] [--compact-threshold=R] [--wal-sync=N]\n"
      "         [--replicate-from=H:P]   (read replica; requires "
      "--durability=DIR)\n"
      "  replication status --server=H:P [--collection=main]\n"
      "  ping   --server=H:P\n"
      "SPEC is an IndexFactory string, e.g. \"DB-LSH,c=1.5,t=40\" or "
      "\"PM-LSH,m=8\";\n"
      "collection specs also accept name= and rebuild_threshold= keys.\n"
      "--budget overrides DB-LSH's candidate budget t per query without "
      "rebuilding.\n"
      "--threads sizes the task executor driving batched queries (default: "
      "hardware concurrency; use 1 for per-query latency numbers).\n"
      "collection upsert/delete update the data and index files in place "
      "(no rebuild).\n"
      "--durability=DIR persists the collection (per-shard snapshot + WAL): "
      "serve seeds it\n"
      "from --data on first run and recovers from DIR afterwards; "
      "--compact-threshold=R\n"
      "rewrites a shard in the background once its tombstone ratio crosses "
      "R; --wal-sync=N\n"
      "groups N WAL appends per fsync (default 1 = sync every commit).\n"
      "With --server=H:P, collection search/upsert/delete and stats talk "
      "to a running\n"
      "`dblsh_tool serve` instance over framed TCP instead of local files "
      "(remote search\n"
      "accepts --collection=NAME and --deadline-ms=B; --gt/--filter stay "
      "local-only).\n"
      "serve --replicate-from=H:P follows a running primary as a read "
      "replica: it\n"
      "bootstraps (or recovers) its own copy under --durability=DIR, tails "
      "the primary's\n"
      "WAL, and refuses writes; the local spec flags must match the "
      "primary's geometry.\n");
  return 2;
}

// Parses a comma-separated id list ("3,17,42") into `out`; prints the
// offending token and returns false on garbage.
bool ParseIdList(const std::string& text, const char* flag,
                 std::vector<uint32_t>* out) {
  for (size_t pos = 0; pos < text.size();) {
    const size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    pos = comma == std::string::npos ? text.size() : comma + 1;
    if (token.empty()) continue;
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || errno == ERANGE ||
        value > std::numeric_limits<uint32_t>::max()) {
      std::fprintf(stderr, "%s: \"%s\" is not a valid point id\n", flag,
                   token.c_str());
      return false;
    }
    out->push_back(static_cast<uint32_t>(value));
  }
  return true;
}

// Parses --filter=[allow:|deny:]IDS into a QueryFilter (bare id lists are
// allow-lists). Returns false on parse failure.
bool ParseFilter(const std::string& text, QueryFilter* out) {
  std::string ids = text;
  bool deny = false;
  if (ids.rfind("deny:", 0) == 0) {
    deny = true;
    ids = ids.substr(5);
  } else if (ids.rfind("allow:", 0) == 0) {
    ids = ids.substr(6);
  }
  std::vector<uint32_t> parsed;
  if (!ParseIdList(ids, "--filter", &parsed)) return false;
  if (parsed.empty()) {
    std::fprintf(stderr, "--filter: no ids given\n");
    return false;
  }
  *out = deny ? QueryFilter::Deny(parsed) : QueryFilter::AllowOnly(parsed);
  return true;
}

// Applies --threads (default: hardware concurrency) to the process-wide
// task executor — the pool every batched query in the tool fans out on —
// and returns the parallelism to request per batch.
size_t ConfigureThreads(const Args& args) {
  const auto threads = static_cast<size_t>(args.GetInt("threads", 0));
  if (args.Has("threads")) exec::TaskExecutor::SetDefaultThreads(threads);
  return threads == 0 ? exec::HardwareConcurrency() : threads;
}

// Collection spec prefix from the shared --shards/--storage/--m/--rerank
// flags (collection search / serve / collection stats all accept them).
// --m only makes sense with --storage=pq; FromSpec rejects it otherwise
// with a typed message.
std::string CollectionPrefix(const Args& args) {
  std::string prefix = "collection";
  if (args.Has("shards")) prefix += ",shards=" + args.Get("shards", "1");
  if (args.Has("storage")) prefix += ",storage=" + args.Get("storage", "");
  if (args.Has("m")) prefix += ",m=" + args.Get("m", "16");
  if (args.Has("rerank")) prefix += ",rerank=" + args.Get("rerank", "4");
  if (args.Has("durability")) {
    prefix += ",durability=" + args.Get("durability", "");
  }
  if (args.Has("compact-threshold")) {
    prefix += ",compact_threshold=" + args.Get("compact-threshold", "");
  }
  if (args.Has("wal-sync")) prefix += ",wal_sync=" + args.Get("wal-sync", "1");
  return prefix;
}

// Splits --server=HOST:PORT ("PORT" alone means loopback). Returns false
// (with a message) on garbage.
bool ParseServer(const std::string& text, std::string* host,
                 uint16_t* port) {
  const size_t colon = text.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? text : text.substr(colon + 1);
  *host = colon == std::string::npos ? "127.0.0.1" : text.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  char* end = nullptr;
  errno = 0;
  const unsigned long value = std::strtoul(port_text.c_str(), &end, 10);
  if (port_text.empty() || end == port_text.c_str() || *end != '\0' ||
      errno == ERANGE || value == 0 || value > 65535) {
    std::fprintf(stderr, "--server: \"%s\" is not HOST:PORT\n",
                 text.c_str());
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

// Connects to the --server target; nullptr (message printed) on failure.
std::unique_ptr<serve::Client> ConnectServer(const Args& args) {
  std::string host;
  uint16_t port = 0;
  if (!ParseServer(args.Get("server", ""), &host, &port)) return nullptr;
  auto client = serve::Client::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return nullptr;
  }
  return std::move(client).value();
}

// SIGINT/SIGTERM flip this; the serve loop polls it (a signal handler can
// only touch lock-free state).
std::atomic<bool> g_serve_stop{false};
void OnServeSignal(int) { g_serve_stop.store(true); }

int RunServe(const Args& args) {
  const std::string data_path = args.Get("data", "");
  const std::string durability_dir = args.Get("durability", "");
  const std::string replicate_from = args.Get("replicate-from", "");
  // Executor first (see RunCollectionSearch for why), then the collection.
  ConfigureThreads(args);
  const std::string indexes = args.Get("indexes", "DB-LSH");
  const std::string spec = CollectionPrefix(args) + ": " + indexes;
  const std::string name = args.Get("collection", "main");
  Timer build_timer;
  std::unique_ptr<Collection> owned;
  std::unique_ptr<replication::Replica> replica;
  if (!replicate_from.empty()) {
    // Follower mode: bootstrap (or locally recover) a read replica of the
    // primary at --replicate-from and serve reads from it.
    if (durability_dir.empty()) {
      std::fprintf(stderr,
                   "serve --replicate-from requires --durability=DIR (the "
                   "replica's own directory)\n");
      return 2;
    }
    replication::ReplicaOptions ropts;
    if (!ParseServer(replicate_from, &ropts.primary_host,
                     &ropts.primary_port)) {
      return 2;
    }
    ropts.collection = name;
    ropts.spec = spec;
    ropts.dir = durability_dir;
    auto started = replication::Replica::Start(ropts);
    if (!started.ok()) {
      std::fprintf(stderr, "cannot start replica of %s: %s\n",
                   replicate_from.c_str(),
                   started.status().ToString().c_str());
      return 1;
    }
    replica = std::move(started).value();
    std::printf("replicating \"%s\" from %s into %s (%zu points at "
                "subscribe time)\n",
                name.c_str(), replicate_from.c_str(), durability_dir.c_str(),
                replica->collection()->size());
  } else if (!durability_dir.empty() &&
      durability::LoadManifest(durability_dir).ok()) {
    // The directory already holds a collection: recover it (snapshot +
    // WAL replay) instead of seeding from --data. A corrupt manifest
    // falls through to FromSpec below, which refuses to clobber it.
    if (!data_path.empty()) {
      std::fprintf(stderr,
                   "note: %s already holds a collection; --data is ignored "
                   "(recovering the persisted state)\n",
                   durability_dir.c_str());
    }
    auto opened = Collection::Open(spec);
    if (!opened.ok()) {
      std::fprintf(stderr, "cannot open collection at %s: %s\n",
                   durability_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    owned = std::move(opened).value();
    const CollectionDurabilityInfo d = owned->Durability();
    std::printf("recovered %zu live points from %s "
                "(replayed %llu WAL record(s) in %.3f ms)\n",
                owned->size(), durability_dir.c_str(),
                static_cast<unsigned long long>(d.replayed_records),
                d.recovery_ms);
  } else {
    if (data_path.empty()) return Usage();
    auto data = LoadFvecs(data_path);
    if (!data.ok()) {
      std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
      return 1;
    }
    auto made = Collection::FromSpec(
        spec, std::make_unique<FloatMatrix>(std::move(data).value()));
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    owned = std::move(made).value();
  }
  Collection& collection =
      replica != nullptr ? *replica->collection() : *owned;

  serve::ServerOptions options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(args.GetInt("port", 0));
  options.max_connections =
      static_cast<size_t>(args.GetInt("max-connections", 32));
  options.coalescer.window_us =
      static_cast<uint32_t>(args.GetInt("window-us", 1000));
  options.coalescer.max_batch =
      static_cast<size_t>(args.GetInt("max-batch", 32));
  if (replica != nullptr) {
    replication::Replica* raw = replica.get();
    options.replication_report = [raw] { return raw->Report(); };
  }
  auto server = serve::Server::Start({{name, &collection}}, options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("serving collection \"%s\" (%zu points, built in %.3f s) on "
              "%s:%u\n",
              name.c_str(), collection.size(), build_timer.ElapsedSec(),
              options.host.c_str(), unsigned{server.value()->port()});
  std::printf("window %u us, batch cap %zu, %zu connections max; "
              "Ctrl-C to drain and exit\n",
              options.coalescer.window_us, options.coalescer.max_batch,
              options.max_connections);
  std::fflush(stdout);

  const int64_t duration_ms = args.GetInt("duration-ms", 0);
  std::signal(SIGINT, OnServeSignal);
  std::signal(SIGTERM, OnServeSignal);
  Timer timer;
  while (!g_serve_stop.load()) {
    if (duration_ms > 0 && timer.ElapsedMs() >= double(duration_ms)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.value()->Shutdown();
  if (replica != nullptr) {
    // Stop tailing before the final checkpoint so no stream applies race
    // the rotation; the checkpointed state re-subscribes from its LSNs on
    // the next start.
    replica->Stop();
    const std::string err = replica->FirstError();
    if (!err.empty()) {
      std::fprintf(stderr, "replication error: %s\n", err.c_str());
    }
  }
  if (collection.Durability().enabled) {
    // Final checkpoint on a clean drain: the next open replays no WAL.
    if (Status s = collection.Checkpoint(); !s.ok()) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   s.ToString().c_str());
    }
  }
  const serve::ServerStats stats = server.value()->Stats();
  std::printf("drained after %.1f s: %llu requests (%llu searches, "
              "%llu upserts, %llu deletes), mean batch %.2f, "
              "%llu shed, %llu deadline-rejected, %llu protocol errors\n",
              timer.ElapsedSec(),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.searches),
              static_cast<unsigned long long>(stats.upserts),
              static_cast<unsigned long long>(stats.deletes),
              stats.mean_batch_size,
              static_cast<unsigned long long>(stats.shed_overload),
              static_cast<unsigned long long>(stats.rejected_deadline),
              static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}

int RunPing(const Args& args) {
  if (!args.Has("server")) return Usage();
  auto client = ConnectServer(args);
  if (client == nullptr) return 1;
  Timer timer;
  if (Status s = client->Ping(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("pong in %.3f ms\n", timer.ElapsedMs());
  return 0;
}

// collection search --server=H:P: ships the whole query file as one
// SearchBatch RPC (the server dispatches it without a window hold).
int RunRemoteSearch(const Args& args) {
  const std::string query_path = args.Get("queries", "");
  if (query_path.empty()) return Usage();
  if (args.Has("gt") || args.Has("filter")) {
    std::fprintf(stderr,
                 "--gt/--filter are local-only; the wire protocol does not "
                 "ship the dataset or filter sets\n");
    return 2;
  }
  auto queries = LoadFvecs(query_path);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto client = ConnectServer(args);
  if (client == nullptr) return 1;
  QueryRequest request;
  request.k = static_cast<size_t>(args.GetInt("k", 10));
  request.candidate_budget = static_cast<size_t>(args.GetInt("budget", 0));
  const auto deadline_us =
      static_cast<uint32_t>(args.GetInt("deadline-ms", 0) * 1000);
  const std::string name = args.Get("collection", "main");
  Timer timer;
  auto responses =
      client->SearchBatch(name, queries.value(), request, deadline_us);
  const double total_ms = timer.ElapsedMs();
  if (!responses.ok()) {
    std::fprintf(stderr, "%s\n", responses.status().ToString().c_str());
    return responses.status().retryable() ? 3 : 1;
  }
  double candidates = 0.0;
  for (size_t q = 0; q < responses.value().size(); ++q) {
    std::printf("query %zu:", q);
    for (const auto& nb : responses.value()[q].neighbors) {
      std::printf(" %u(%.4f)", nb.id, nb.dist);
    }
    std::printf("\n");
    candidates += double(responses.value()[q].stats.candidates_verified);
  }
  const auto denom = static_cast<double>(
      queries.value().rows() ? queries.value().rows() : 1);
  std::printf("avg round-trip: %.3f ms/query (one batched RPC)  "
              "avg candidates: %.0f\n",
              total_ms / denom, candidates / denom);
  return 0;
}

int RunRemoteUpsert(const Args& args) {
  const std::string vectors_path = args.Get("vectors", "");
  if (vectors_path.empty()) return Usage();
  auto vectors = LoadFvecs(vectors_path);
  if (!vectors.ok()) {
    std::fprintf(stderr, "%s\n", vectors.status().ToString().c_str());
    return 1;
  }
  auto client = ConnectServer(args);
  if (client == nullptr) return 1;
  const std::string name = args.Get("collection", "main");
  Timer timer;
  std::printf("upserted ids:");
  for (size_t r = 0; r < vectors.value().rows(); ++r) {
    auto up = client->Upsert(name, vectors.value().row(r),
                             vectors.value().cols());
    if (!up.ok()) {
      std::fprintf(stderr, "\n%s\n", up.status().ToString().c_str());
      return 1;
    }
    std::printf(" %u", up.value());
  }
  std::printf("\nupserted %zu vectors in %.3f s (server-side; files on the "
              "serving host are unchanged until it persists)\n",
              vectors.value().rows(), timer.ElapsedSec());
  return 0;
}

int RunRemoteDelete(const Args& args) {
  const std::string ids_arg = args.Get("ids", "");
  if (ids_arg.empty()) return Usage();
  std::vector<uint32_t> ids;
  if (!ParseIdList(ids_arg, "--ids", &ids)) return 2;
  auto client = ConnectServer(args);
  if (client == nullptr) return 1;
  const std::string name = args.Get("collection", "main");
  for (const uint32_t id : ids) {
    if (Status s = client->Delete(name, id); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("deleted %zu ids on the server\n", ids.size());
  return 0;
}

int RunRemoteStats(const Args& args) {
  auto client = ConnectServer(args);
  if (client == nullptr) return 1;
  auto stats = client->Stats();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  for (const auto& c : stats.value().collections) {
    std::printf("collection \"%s\": %llu live vectors, epoch %llu, "
                "%u shard(s)\n",
                c.name.c_str(),
                static_cast<unsigned long long>(c.live_vectors),
                static_cast<unsigned long long>(c.epoch), c.shards);
    std::printf("  storage: %s, %llu bytes/vector, %.2f MiB resident",
                c.storage.c_str(),
                static_cast<unsigned long long>(c.bytes_per_vector),
                static_cast<double>(c.resident_bytes) / (1024.0 * 1024.0));
    if (c.rerank > 0) std::printf(", rerank x%u", c.rerank);
    std::printf("\n");
    if (c.durable) {
      std::printf("  durability: %llu checkpoint(s), %llu compaction(s), "
                  "%llu WAL append(s), %llu record(s) replayed at open "
                  "(%.3f ms)\n",
                  static_cast<unsigned long long>(c.checkpoints),
                  static_cast<unsigned long long>(c.compactions),
                  static_cast<unsigned long long>(c.wal_appends),
                  static_cast<unsigned long long>(c.replayed_records),
                  c.recovery_ms);
    }
  }
  const serve::ServerStats& s = stats.value().server;
  std::printf("connections: %llu accepted, %llu rejected, %llu active\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.connections_rejected),
              static_cast<unsigned long long>(s.connections_active));
  std::printf("requests: %llu (%llu searches, %llu upserts, %llu deletes, "
              "%llu protocol errors)\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.searches),
              static_cast<unsigned long long>(s.upserts),
              static_cast<unsigned long long>(s.deletes),
              static_cast<unsigned long long>(s.protocol_errors));
  std::printf("coalescing: %llu batches over %llu queries "
              "(mean %.2f, max %llu); %llu shed, %llu deadline-rejected\n",
              static_cast<unsigned long long>(s.batches_dispatched),
              static_cast<unsigned long long>(s.batched_queries),
              s.mean_batch_size,
              static_cast<unsigned long long>(s.max_batch_size),
              static_cast<unsigned long long>(s.shed_overload),
              static_cast<unsigned long long>(s.rejected_deadline));
  return 0;
}

int RunMethods() {
  std::printf("Registered index methods (IndexFactory::Make specs):\n");
  for (const std::string& name : IndexFactory::ListMethods()) {
    auto description = IndexFactory::Describe(name);
    std::printf("  %-12s %s\n", name.c_str(),
                description.ok() ? description.value().c_str() : "");
  }
  std::printf("\nSpec grammar: \"Name,key=value,...\" — see README.md.\n");
  return 0;
}

int RunGen(const Args& args) {
  ClusteredSpec spec;
  spec.n = static_cast<size_t>(args.GetInt("n", 20000));
  spec.dim = static_cast<size_t>(args.GetInt("dim", 64));
  spec.clusters = static_cast<size_t>(args.GetInt("clusters", 32));
  spec.center_spread = args.GetDouble("spread", 30.0);
  spec.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const std::string out = args.Get("out", "");
  if (out.empty()) return Usage();
  const FloatMatrix data = GenerateClustered(spec);
  if (int rc = WriteVecsRows(out, data.data().data(), data.rows(),
                             data.cols());
      rc != 0) {
    return rc;
  }
  std::printf("wrote %zu x %zu vectors to %s\n", data.rows(), data.cols(),
              out.c_str());
  return 0;
}

// dataset subset: extracts a seeded random sample of N rows from an
// fvecs/bvecs file into an fvecs/bvecs file (input and output flavors are
// independent; bvecs components are widened/clamped as needed). File
// order is preserved within the sample so repeated runs with one seed are
// byte-identical.
int RunDatasetSubset(const Args& args) {
  const std::string in_path = args.Get("in", "");
  const std::string out_path = args.Get("out", "");
  const size_t n = static_cast<size_t>(args.GetInt("n", 0));
  if (in_path.empty() || out_path.empty() || n == 0) return Usage();
  auto data = IsBvecsPath(in_path) ? util::ReadBvecsAsFloat(in_path)
                                   : util::ReadFvecs(in_path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const util::FvecsData& rows = data.value();
  if (rows.count() < n) {
    std::fprintf(stderr,
                 "dataset subset: asked for %zu rows but %s holds %zu\n", n,
                 in_path.c_str(), rows.count());
    return 1;
  }
  // Partial Fisher-Yates over the index array: the first n entries are a
  // uniform sample without replacement; sorting keeps file order.
  std::vector<uint32_t> pick(rows.count());
  for (size_t i = 0; i < pick.size(); ++i) {
    pick[i] = static_cast<uint32_t>(i);
  }
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  for (size_t i = 0; i < n; ++i) {
    const size_t j = i + rng.UniformInt(pick.size() - i);
    std::swap(pick[i], pick[j]);
  }
  std::sort(pick.begin(), pick.begin() + static_cast<ptrdiff_t>(n));
  std::vector<float> sample(n * rows.dim);
  for (size_t i = 0; i < n; ++i) {
    const float* src = rows.values.data() + pick[i] * rows.dim;
    std::copy(src, src + rows.dim, sample.data() + i * rows.dim);
  }
  if (int rc = WriteVecsRows(out_path, sample.data(), n, rows.dim); rc != 0) {
    return rc;
  }
  std::printf("wrote %zu of %zu vectors (dim %zu) from %s to %s\n", n,
              rows.count(), rows.dim, in_path.c_str(), out_path.c_str());
  return 0;
}

// dataset randset: seeded synthetic generation straight to an fvecs/bvecs
// file — uniform rows by default (the hard, structureless regime),
// clustered Gaussian-mixture rows with --clusters=C (like `gen`).
int RunDatasetRandset(const Args& args) {
  const std::string out_path = args.Get("out", "");
  const size_t n = static_cast<size_t>(args.GetInt("n", 0));
  const size_t dim = static_cast<size_t>(args.GetInt("dim", 0));
  if (out_path.empty() || n == 0 || dim == 0) return Usage();
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  // Default spread 200 keeps uniform rows inside bvecs' [0, 255] range.
  const double spread = args.GetDouble("spread", 200.0);
  FloatMatrix data(0, 0);
  if (args.Has("clusters")) {
    ClusteredSpec spec;
    spec.n = n;
    spec.dim = dim;
    spec.clusters = static_cast<size_t>(args.GetInt("clusters", 32));
    spec.center_spread = spread;
    spec.seed = seed;
    data = GenerateClustered(spec);
  } else {
    data = GenerateUniform(n, dim, spread, seed);
  }
  if (int rc = WriteVecsRows(out_path, data.data().data(), data.rows(),
                             data.cols());
      rc != 0) {
    return rc;
  }
  std::printf("wrote %zu x %zu synthetic vectors to %s\n", data.rows(),
              data.cols(), out_path.c_str());
  return 0;
}

int RunDataset(int argc, char** argv, const Args& args) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub == "subset") return RunDatasetSubset(args);
  if (sub == "randset") return RunDatasetRandset(args);
  return Usage();
}

int RunBuild(const Args& args) {
  const std::string data_path = args.Get("data", "");
  const std::string index_path = args.Get("index", "");
  if (data_path.empty() || index_path.empty()) return Usage();
  auto data = LoadFvecs(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  // Either a full factory spec via --method, or the legacy --c/--l/--k/--t
  // flags applied to the default DB-LSH spec (with --method, put the
  // parameters in the spec itself; mixing the two is rejected so a flag
  // can't silently fight a spec key).
  std::string spec = args.Get("method", "");
  if (spec.empty()) {
    spec = "DB-LSH";
    for (const char* flag : {"c", "l", "k", "t"}) {
      if (args.Has(flag)) {
        spec += std::string(",") + flag + "=" + args.Get(flag, "");
      }
    }
  } else {
    for (const char* flag : {"c", "l", "k", "t"}) {
      if (args.Has(flag)) {
        std::fprintf(stderr,
                     "--%s cannot be combined with --method; add %s=... to "
                     "the spec instead\n",
                     flag, flag);
        return 2;
      }
    }
  }
  auto made = IndexFactory::Make(spec);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 1;
  }
  // Persistence check before the (potentially long) build, not after.
  auto* db = dynamic_cast<DbLsh*>(made.value().get());
  if (db == nullptr) {
    std::fprintf(stderr,
                 "persistence is DB-LSH-family only; use `query "
                 "--method=...` to serve %s in memory\n",
                 made.value()->Name().c_str());
    return 1;
  }
  Timer timer;
  if (Status s = made.value()->Build(&data.value()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("built %s over %zu points in %.3f s (%zu hash functions)\n",
              made.value()->Name().c_str(), data.value().rows(),
              timer.ElapsedSec(), made.value()->NumHashFunctions());
  if (Status s = db->Save(index_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("saved index to %s\n", index_path.c_str());
  return 0;
}

int RunQuery(const Args& args) {
  const std::string data_path = args.Get("data", "");
  const std::string index_path = args.Get("index", "");
  const std::string method_spec = args.Get("method", "");
  const std::string query_path = args.Get("queries", "");
  if (data_path.empty() || query_path.empty() ||
      (index_path.empty() == method_spec.empty())) {
    return Usage();
  }
  auto data = LoadFvecs(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto queries = LoadFvecs(query_path);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }

  // Either restore a persisted DB-LSH index or build any registered
  // method in memory from its --method spec.
  std::optional<DbLsh> loaded_index;
  std::unique_ptr<AnnIndex> built_index;
  AnnIndex* index = nullptr;
  if (!index_path.empty()) {
    auto loaded = DbLsh::Load(index_path, &data.value());
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    loaded_index.emplace(std::move(loaded).value());
    index = &*loaded_index;
  } else {
    auto made = IndexFactory::Make(method_spec);
    if (!made.ok()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    built_index = std::move(made).value();
    index = built_index.get();
    Timer build_timer;
    if (Status s = index->Build(&data.value()); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("built %s in %.3f s\n", index->Name().c_str(),
                build_timer.ElapsedSec());
  }

  QueryRequest request;
  request.k = static_cast<size_t>(args.GetInt("k", 10));
  request.candidate_budget = static_cast<size_t>(args.GetInt("budget", 0));
  const size_t threads = ConfigureThreads(args);
  const bool with_gt = args.Has("gt");
  Timer timer;
  const auto responses = index->QueryBatch(queries.value(), request, threads);
  const double total_ms = timer.ElapsedMs();

  double recall = 0.0, ratio = 0.0, candidates = 0.0;
  for (size_t q = 0; q < responses.size(); ++q) {
    std::printf("query %zu:", q);
    for (const auto& nb : responses[q].neighbors) {
      std::printf(" %u(%.4f)", nb.id, nb.dist);
    }
    std::printf("\n");
    candidates += double(responses[q].stats.candidates_verified);
    if (with_gt) {
      const auto gt =
          ExactKnn(data.value(), queries.value().row(q), request.k);
      recall += eval::Recall(responses[q].neighbors, gt);
      ratio += eval::OverallRatio(responses[q].neighbors, gt);
    }
  }
  const auto denom = static_cast<double>(
      queries.value().rows() ? queries.value().rows() : 1);
  std::printf("avg wall time: %.3f ms/query over %zu threads  "
              "avg candidates: %.0f\n",
              total_ms / denom, threads, candidates / denom);
  if (with_gt) {
    std::printf("recall@%zu: %.4f  overall ratio: %.4f\n", request.k,
                recall / denom, ratio / denom);
  }
  return 0;
}

// Shared front half of collection upsert/delete: load the data file, adopt
// the persisted DB-LSH index into a Collection under the slot name "main"
// — no rebuild, the loaded structures serve as-is.
std::unique_ptr<Collection> LoadCollection(const Args& args,
                                           std::string* data_path,
                                           std::string* index_path) {
  *data_path = args.Get("data", "");
  *index_path = args.Get("index", "");
  if (data_path->empty() || index_path->empty()) return nullptr;
  auto loaded_data = LoadFvecs(*data_path);
  if (!loaded_data.ok()) {
    std::fprintf(stderr, "%s\n", loaded_data.status().ToString().c_str());
    return nullptr;
  }
  auto data =
      std::make_unique<FloatMatrix>(std::move(loaded_data).value());
  auto loaded = DbLsh::Load(*index_path, data.get());
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return nullptr;
  }
  auto collection = std::make_unique<Collection>(std::move(data));
  Status s = collection->AddPrebuiltIndex(
      "main", std::make_unique<DbLsh>(std::move(loaded).value()));
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return nullptr;
  }
  return collection;
}

// Persists the collection's state back to the files the session loaded:
// the data file when `rewrite_data` (upserts change rows), and always the
// index file (it stores the tombstone set).
int SaveCollection(const Collection& collection, const std::string& data_path,
                   const std::string& index_path, bool rewrite_data) {
  if (rewrite_data) {
    const FloatMatrix rows = collection.Snapshot();
    if (int rc = WriteVecsRows(data_path, rows.data().data(), rows.rows(),
                               rows.cols());
        rc != 0) {
      return rc;
    }
  }
  const auto* db = dynamic_cast<const DbLsh*>(collection.GetIndex("main"));
  if (Status s = db->Save(index_path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunCollectionUpsert(const Args& args) {
  const std::string vectors_path = args.Get("vectors", "");
  if (vectors_path.empty()) return Usage();
  std::string data_path, index_path;
  auto collection = LoadCollection(args, &data_path, &index_path);
  if (collection == nullptr) return data_path.empty() ? Usage() : 1;
  auto vectors = LoadFvecs(vectors_path);
  if (!vectors.ok()) {
    std::fprintf(stderr, "%s\n", vectors.status().ToString().c_str());
    return 1;
  }
  Timer timer;
  std::printf("upserted ids:");
  for (size_t r = 0; r < vectors.value().rows(); ++r) {
    auto up = collection->Upsert(vectors.value().row(r),
                                 vectors.value().cols());
    if (!up.ok()) {
      std::fprintf(stderr, "\n%s\n", up.status().ToString().c_str());
      return 1;
    }
    std::printf(" %u", up.value());
  }
  std::printf("\nupserted %zu vectors in %.3f s (collection now serves %zu "
              "live points)\n",
              vectors.value().rows(), timer.ElapsedSec(),
              collection->size());
  if (int rc = SaveCollection(*collection, data_path, index_path,
                              /*rewrite_data=*/true); rc != 0) {
    return rc;
  }
  std::printf("updated %s and %s\n", data_path.c_str(), index_path.c_str());
  return 0;
}

int RunCollectionDelete(const Args& args) {
  const std::string ids_arg = args.Get("ids", "");
  if (ids_arg.empty()) return Usage();
  std::string data_path, index_path;
  auto collection = LoadCollection(args, &data_path, &index_path);
  if (collection == nullptr) return data_path.empty() ? Usage() : 1;
  std::vector<uint32_t> ids;
  if (!ParseIdList(ids_arg, "--ids", &ids)) return 2;
  for (const uint32_t id : ids) {
    if (Status s = collection->Delete(id); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("deleted %zu ids (%zu live points remain)\n", ids.size(),
              collection->size());
  if (int rc = SaveCollection(*collection, data_path, index_path,
                              /*rewrite_data=*/false); rc != 0) {
    return rc;
  }
  std::printf("updated %s (tombstones are stored in the index file; the "
              "data file is unchanged)\n",
              index_path.c_str());
  return 0;
}

int RunCollectionSearch(const Args& args) {
  const std::string data_path = args.Get("data", "");
  const std::string query_path = args.Get("queries", "");
  if (data_path.empty() || query_path.empty()) return Usage();
  auto data = LoadFvecs(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  auto queries = LoadFvecs(query_path);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }

  QueryRequest request;
  request.k = static_cast<size_t>(args.GetInt("k", 10));
  request.candidate_budget = static_cast<size_t>(args.GetInt("budget", 0));
  const std::string filter_arg = args.Get("filter", "");
  if (!filter_arg.empty() && !ParseFilter(filter_arg, &request.filter)) {
    return 2;
  }

  // Size the executor BEFORE the collection captures a reference to it
  // (SetDefaultThreads replaces the default pool; a collection built first
  // would be left pointing at the destroyed one).
  const size_t threads = ConfigureThreads(args);

  const std::string indexes = args.Get("indexes", "DB-LSH");
  Timer build_timer;
  auto made = Collection::FromSpec(
      CollectionPrefix(args) + ": " + indexes,
      std::make_unique<FloatMatrix>(std::move(data).value()));
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 1;
  }
  Collection& collection = *made.value();
  std::printf("collection over %zu points built in %.3f s; serving via %s\n",
              collection.size(), build_timer.ElapsedSec(),
              args.Has("use") ? args.Get("use", "").c_str()
                              : "best-capable index");

  const std::string use = args.Get("use", "");
  const bool with_gt = args.Has("gt");
  Timer timer;
  auto responses =
      collection.SearchBatch(queries.value(), request, use, threads);
  const double total_ms = timer.ElapsedMs();
  if (!responses.ok()) {
    std::fprintf(stderr, "%s\n", responses.status().ToString().c_str());
    return 1;
  }

  // Ground truth respects the same filter (the oracle a filtered serving
  // path is judged against).
  const FloatMatrix snapshot = with_gt ? collection.Snapshot() : FloatMatrix();
  double recall = 0.0, ratio = 0.0, candidates = 0.0;
  for (size_t q = 0; q < responses.value().size(); ++q) {
    const QueryResponse& response = responses.value()[q];
    std::printf("query %zu:", q);
    for (const auto& nb : response.neighbors) {
      std::printf(" %u(%.4f)", nb.id, nb.dist);
    }
    std::printf("\n");
    candidates += double(response.stats.candidates_verified);
    if (with_gt) {
      ScopedQueryFilter gt_filter(&request.filter);
      const auto gt = ExactKnn(snapshot, queries.value().row(q), request.k);
      recall += eval::Recall(response.neighbors, gt);
      ratio += eval::OverallRatio(response.neighbors, gt);
    }
  }
  const auto denom = static_cast<double>(
      queries.value().rows() ? queries.value().rows() : 1);
  std::printf("avg wall time: %.3f ms/query over %zu threads  "
              "avg candidates: %.0f\n",
              total_ms / denom, threads, candidates / denom);
  if (with_gt) {
    std::printf("recall@%zu: %.4f  overall ratio: %.4f\n", request.k,
                recall / denom, ratio / denom);
  }
  return 0;
}

// collection stats --data=F.fvecs: builds the collection locally and
// reports the storage backend — kind, bytes/vector, per-shard resident
// bytes — plus the process RSS, the numbers the bench JSON memory bands
// are pinned on. The interesting comparison is --storage=sq8 vs the fp32
// default over the same data.
int RunCollectionStats(const Args& args) {
  const std::string data_path = args.Get("data", "");
  if (data_path.empty()) return Usage();
  auto data = LoadFvecs(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const std::string prefix = CollectionPrefix(args);
  const std::string indexes = args.Get("indexes", "DB-LSH");
  Timer build_timer;
  auto made = Collection::FromSpec(
      prefix + ": " + indexes,
      std::make_unique<FloatMatrix>(std::move(data).value()));
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 1;
  }
  Collection& collection = *made.value();
  const CollectionStorageInfo storage = collection.Storage();
  std::printf("collection over %zu points (dim %zu) built in %.3f s\n",
              collection.size(), collection.dim(), build_timer.ElapsedSec());
  std::printf("storage: %s, %zu bytes/vector", storage.kind.c_str(),
              storage.bytes_per_vector);
  if (storage.rerank > 0) std::printf(", rerank x%zu", storage.rerank);
  std::printf("\n");
  std::printf("store resident: %.2f MiB total\n",
              static_cast<double>(storage.resident_bytes) /
                  (1024.0 * 1024.0));
  for (size_t s = 0; s < storage.shard_resident_bytes.size(); ++s) {
    std::printf("  shard %zu: %.2f MiB\n", s,
                static_cast<double>(storage.shard_resident_bytes[s]) /
                    (1024.0 * 1024.0));
  }
  for (const CollectionIndexInfo& info : collection.Indexes()) {
    std::printf("index \"%s\" (%s): %s\n", info.name.c_str(),
                info.method.c_str(), info.built ? "built" : "not built");
  }
  const perfmon::MemoryUsage mem = perfmon::SampleMemory();
  std::printf("process RSS: %.2f MiB (peak %.2f MiB)\n",
              static_cast<double>(mem.resident_bytes) / (1024.0 * 1024.0),
              static_cast<double>(mem.peak_resident_bytes) /
                  (1024.0 * 1024.0));
  return 0;
}

// collection open --durability=DIR [--indexes=...]: recovers a persisted
// collection (snapshot + WAL replay), reports what recovery did, and exits
// nonzero with the typed status message when the directory is missing or
// damaged — the gate CI's recovery smoke runs after killing a serving
// process mid-load.
int RunCollectionOpen(const Args& args) {
  const std::string dir = args.Get("durability", "");
  if (dir.empty()) {
    std::fprintf(stderr, "collection open requires --durability=DIR\n");
    return Usage();
  }
  ConfigureThreads(args);
  const std::string indexes = args.Get("indexes", "DB-LSH");
  Timer timer;
  auto opened = Collection::Open(CollectionPrefix(args) + ": " + indexes);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open collection at %s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  Collection& collection = *opened.value();
  const CollectionDurabilityInfo d = collection.Durability();
  std::printf("recovered %zu live points (dim %zu) from %s in %.3f s\n",
              collection.size(), collection.dim(), dir.c_str(),
              timer.ElapsedSec());
  std::printf("snapshot restore + %llu replayed WAL record(s) took %.3f ms; "
              "state re-checkpointed on open\n",
              static_cast<unsigned long long>(d.replayed_records),
              d.recovery_ms);
  return 0;
}

// collection checkpoint: forces a durable checkpoint — remotely via the
// kCheckpoint RPC against a running server, or locally by recovering the
// directory and rotating it.
int RunCollectionCheckpoint(const Args& args) {
  if (args.Has("server")) {
    auto client = ConnectServer(args);
    if (client == nullptr) return 1;
    const std::string name = args.Get("collection", "main");
    Timer timer;
    if (Status s = client->Checkpoint(name); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed \"%s\" in %.3f ms\n", name.c_str(),
                timer.ElapsedMs());
    return 0;
  }
  const std::string dir = args.Get("durability", "");
  if (dir.empty()) {
    std::fprintf(stderr,
                 "collection checkpoint requires --server=H:P or "
                 "--durability=DIR\n");
    return Usage();
  }
  ConfigureThreads(args);
  auto opened = Collection::Open(CollectionPrefix(args) + ": " +
                                 args.Get("indexes", "DB-LSH"));
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open collection at %s: %s\n", dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  Timer timer;
  if (Status s = opened.value()->Checkpoint(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("checkpointed %zu live points at %s in %.3f ms\n",
              opened.value()->size(), dir.c_str(), timer.ElapsedMs());
  return 0;
}

// replication status --server=H:P: asks a running server (primary or
// replica) for its role and per-shard replication positions.
int RunReplicationStatus(const Args& args) {
  if (!args.Has("server")) return Usage();
  auto client = ConnectServer(args);
  if (client == nullptr) return 1;
  const std::string name = args.Get("collection", "main");
  auto status = client->ReplicaStatus(name);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.status().ToString().c_str());
    return 1;
  }
  const auto& reply = status.value();
  if (reply.role == 0) {
    std::printf("collection \"%s\": primary, %llu WAL record(s) shipped to "
                "subscribers\n",
                name.c_str(),
                static_cast<unsigned long long>(reply.records_shipped));
  } else {
    std::printf("collection \"%s\": replica of %s, %llu record(s) applied\n",
                name.c_str(), reply.primary.c_str(),
                static_cast<unsigned long long>(reply.records_applied));
  }
  uint64_t total_lag = 0;
  for (size_t s = 0; s < reply.shards.size(); ++s) {
    const auto& shard = reply.shards[s];
    const uint64_t lag = shard.primary_lsn - shard.applied_lsn;
    total_lag += lag;
    std::printf("  shard %zu: applied LSN %llu / primary LSN %llu "
                "(lag %llu)\n",
                s, static_cast<unsigned long long>(shard.applied_lsn),
                static_cast<unsigned long long>(shard.primary_lsn),
                static_cast<unsigned long long>(lag));
  }
  std::printf("total lag: %llu record(s) across %zu shard(s)\n",
              static_cast<unsigned long long>(total_lag),
              reply.shards.size());
  return 0;
}

int RunReplication(int argc, char** argv, const Args& args) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  if (sub == "status") return RunReplicationStatus(args);
  return Usage();
}

int RunCollection(int argc, char** argv, const Args& args) {
  const std::string sub = argc >= 3 ? argv[2] : "";
  const bool remote = args.Has("server");
  if (sub == "upsert") {
    return remote ? RunRemoteUpsert(args) : RunCollectionUpsert(args);
  }
  if (sub == "delete") {
    return remote ? RunRemoteDelete(args) : RunCollectionDelete(args);
  }
  if (sub == "search") {
    return remote ? RunRemoteSearch(args) : RunCollectionSearch(args);
  }
  if (sub == "stats") {
    return remote ? RunRemoteStats(args) : RunCollectionStats(args);
  }
  if (sub == "open") return RunCollectionOpen(args);
  if (sub == "checkpoint") return RunCollectionCheckpoint(args);
  return Usage();
}

int RunStats(const Args& args) {
  if (args.Has("server")) return RunRemoteStats(args);
  const std::string data_path = args.Get("data", "");
  if (data_path.empty()) return Usage();
  auto data = LoadFvecs(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const DatasetStats stats = EstimateStats(data.value());
  std::printf("n = %zu, dim = %zu\n", data.value().rows(),
              data.value().cols());
  std::printf("mean distance:      %.4f\n", stats.mean_distance);
  std::printf("mean 1-NN distance: %.4f\n", stats.mean_nn_distance);
  std::printf("relative contrast:  %.3f (higher = easier)\n",
              stats.relative_contrast);
  std::printf("LID (MLE):          %.2f (higher = harder)\n", stats.lid);
  return 0;
}

}  // namespace
}  // namespace dblsh

int main(int argc, char** argv) {
  if (argc < 2) return dblsh::Usage();
  const dblsh::Args args(argc, argv);
  const std::string command = argv[1];
  if (command == "methods") return dblsh::RunMethods();
  if (command == "gen") return dblsh::RunGen(args);
  if (command == "dataset") return dblsh::RunDataset(argc, argv, args);
  if (command == "build") return dblsh::RunBuild(args);
  if (command == "query") return dblsh::RunQuery(args);
  if (command == "collection") return dblsh::RunCollection(argc, argv, args);
  if (command == "serve") return dblsh::RunServe(args);
  if (command == "replication") {
    return dblsh::RunReplication(argc, argv, args);
  }
  if (command == "ping") return dblsh::RunPing(args);
  if (command == "stats") return dblsh::RunStats(args);
  return dblsh::Usage();
}
