#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "answers.h"
#include "common.h"
#include "data.h"
#include "core/ann_index.h"
#include "core/collection.h"
#include "dataset/float_matrix.h"
#include "dataset/vector_store.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// What one run hands back to main: its metrics and its outcome tally.
struct RunOutput {
  Report report;
  Outcomes outcomes;
};

/// read-fp32, read-sq8 and read-pq (by `storage`): one thread, closed-loop
/// in-process Collection::Search over a 1-shard collection. A traced run
/// adds layer replays; on fp32 also the serve-mixed probe, on sq8 also the
/// PQ probe.
RunOutput RunRead(const Options& options, dblsh::StorageKind storage);

/// serve-mixed: a durable 2-shard collection reopened from disk and served
/// over loopback to an open-loop search connection and an open-loop write
/// connection, with periodic checkpoints.
RunOutput RunServeMixed(const Options& options);

/// The serve-mixed measurement over `data` (its rows are consumed).
/// Untraced it sets the end-to-end metrics; traced it sets the serve.*,
/// durability.*, loadgen.* and collection.upsert/delete metrics, and with
/// `replay_layers` also everything ReplayLayers sets. The traced read-fp32
/// run calls it as a probe.
void MeasureServeMixed(const Options& options, Dataset data,
                       Tracer* tracer, bool replay_layers, RunOutput* run);

// ---------------------------------------------------------------------
// Pieces shared by the workloads.

constexpr size_t kK = 10;
/// Queries whose layers are replayed one by one in a traced run.
constexpr size_t kTracedQueries = 200;
/// Upserts the writer makes before it starts deleting its oldest rows.
constexpr size_t kLeadUpserts = 64;

/// Fails the run outright (throws): the workload cannot continue.
[[noreturn]] void Fatal(const std::string& what, const dblsh::Status& s);

/// Sets `<prefix>_p50_ms` and `<prefix>_p99_ms`, warning on stderr when
/// fewer than Percentiles::kMinTail samples lie beyond the p99.
void SetLatency(Report* report, const std::string& prefix,
                const Percentiles& p);

/// Writes the run's spans to `<work_dir>/trace-<workload>-<seed>.jsonl`.
void WriteTrace(const Tracer& tracer, const Options& options);

/// Resets the process's RSS high-water mark (after returning freed heap
/// pages to the OS), so preparation done by the benchmark stays out of
/// peak_rss_mb.
void ResetPeakRss();
/// VmHWM in MiB.
double PeakRssMb();

/// The single writer's fixed sequence: kLeadUpserts upserts, then two
/// upserts for every delete of its oldest live row. Every delete removes
/// a row this writer upserted, so the sequence — and the ids the
/// collection assigns — repeat exactly. Deletes are much cheaper than
/// upserts; at one in three, the write p50 lies inside the upsert
/// population rather than on the boundary between the two.
class Writer {
 public:
  explicit Writer(const dblsh::FloatMatrix* rows) : rows_(rows) {}

  /// The vector op `i` upserts, or nullptr when op `i` is a delete.
  const float* UpsertRow(size_t i) const;
  /// The id op `i` deletes (the oldest live row); only for deletes.
  uint32_t Victim() const { return live_.front(); }
  /// Records an acknowledged upsert; returns a problem when the ack's id
  /// is one of the base rows or already live.
  std::string Upserted(uint32_t id, uint32_t base_rows);
  /// Records an acknowledged delete of Victim().
  void Deleted() { live_.pop_front(); }

  const std::deque<uint32_t>& live() const { return live_; }
  /// Every id this writer ever had acknowledged.
  bool EverUpserted(uint32_t id) const;

 private:
  const dblsh::FloatMatrix* rows_;
  size_t upserts_ = 0;
  std::deque<uint32_t> live_;
  std::vector<uint32_t> ever_;  // sorted
};

/// Inputs of the per-layer replays under one Collection::Search.
struct LayerReplay {
  const dblsh::Collection* collection = nullptr;
  /// Shard 0's index (local ids), queried directly — only while no
  /// writer runs.
  const dblsh::AnnIndex* index = nullptr;
  /// Benchmark-owned store with the same rows (and, for PQ, the same
  /// codebooks) as shard 0's private store.
  dblsh::VectorStore* store = nullptr;
  /// When set, a PqStore replayed under the same candidates for the pq.*
  /// metrics.
  const dblsh::VectorStore* pq_probe = nullptr;
  const dblsh::FloatMatrix* queries = nullptr;
  size_t k = kK;
  /// Re-rank multiplier of a quantized collection; 0 for fp32 (no
  /// re-rank on the path).
  size_t rerank = 0;
  std::string index_spec;
};

/// Traced-run tail shared by all workloads: an in-process pass of
/// Collection::Search over every query (counts and per-query spans), then
/// per-query replays of the index, verify, projection and store layers,
/// a replayed index build and a SearchBatch efficiency probe. Sets the
/// collection.search/self, dblsh.*, verify.*, lsh.*, rtree.*, store.*
/// (except train_s), exec.* and, with a PQ probe, pq.* (except train_s)
/// metrics. Returns the in-process span per query.
std::map<int64_t, double> ReplayLayers(const LayerReplay& in, Tracer* tracer,
                                       Report* report, Outcomes* outcomes);

/// WalWriter::Append + fsync on a segment the benchmark owns in
/// `dir`: p50 in ms over `appends` records.
double WalAppendP50Ms(const std::string& dir, size_t dim, size_t appends);

/// Sets every per-layer metric `report` lacks to 0: the layer is not on
/// this workload's path.
void FillAbsentLayers(Report* report);

/// Names of the end-to-end and per-layer metrics, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndNames();
const std::vector<std::string>& PerLayerNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
