#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/db_lsh.h"
#include "core/index_factory.h"
#include "core/verify.h"
#include "data.h"
#include "durability/wal.h"
#include "lsh/projection.h"
#include "util/perfmon.h"

namespace perfbench {

using dblsh::Collection;
using dblsh::FloatMatrix;
using dblsh::Neighbor;
using dblsh::QueryRequest;
using dblsh::QueryResponse;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"search_qps", "1/s"},
      {"search_p50_ms", "ms"},   {"search_p99_ms", "ms"},
      {"recall_at_10", "ratio"}, {"peak_rss_mb", "MiB"},
      {"ok_ratio", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> defs = {
      {"serve.search_p50_ms", "ms"},
      {"serve.search_p99_ms", "ms"},
      {"serve.write_p50_ms", "ms"},
      {"serve.write_p99_ms", "ms"},
      {"serve.overhead_p50_ms", "ms"},
      {"serve.mean_batch", "count"},
      {"serve.failed", "count"},
      {"serve.write_overhead_p50_ms", "ms"},
      {"collection.search_ms", "ms"},
      {"collection.self_ms", "ms"},
      {"collection.upsert_p50_ms", "ms"},
      {"collection.delete_p50_ms", "ms"},
      {"dblsh.search_ms", "ms"},
      {"dblsh.candidates", "count"},
      {"dblsh.points_accessed", "count"},
      {"dblsh.rounds", "count"},
      {"dblsh.windows", "count"},
      {"dblsh.dup_ratio", "ratio"},
      {"dblsh.build_s", "s"},
      {"verify.score_ms", "ms"},
      {"lsh.project_ms", "ms"},
      {"rtree.probe_ms", "ms"},
      {"store.prepare_us", "us"},
      {"store.score_ns", "ns"},
      {"store.rerank_ms", "ms"},
      {"store.train_s", "s"},
      {"store.bytes_per_vector", "bytes"},
      {"store.resident_mb", "MiB"},
      {"pq.train_s", "s"},
      {"pq.verify_ms", "ms"},
      {"pq.prepare_us", "us"},
      {"pq.score_ns", "ns"},
      {"pq.rerank_ms", "ms"},
      {"exec.batch_efficiency", "ratio"},
      {"durability.reopen_s", "s"},
      {"durability.recovery_ms", "ms"},
      {"durability.open_rebuild_ms", "ms"},
      {"durability.replayed_records", "count"},
      {"durability.wal_appends", "count"},
      {"durability.wal_append_p50_ms", "ms"},
      {"durability.checkpoint_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.search_p50_ms", "ms"},
  };
  return defs;
}

std::vector<std::string> NamesOf(const std::vector<MetricDef>& defs) {
  std::vector<std::string> names;
  for (const MetricDef& d : defs) names.push_back(d.name);
  return names;
}

std::vector<double> Values(const std::map<int64_t, double>& by_request) {
  std::vector<double> out;
  for (const auto& [request, ms] : by_request) out.push_back(ms);
  return out;
}

}  // namespace

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = NamesOf(EndToEndDefs());
  return names;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = NamesOf(PerLayerDefs());
  return names;
}

void Fatal(const std::string& what, const dblsh::Status& s) {
  throw std::runtime_error(what + ": " + s.ToString());
}

void FillAbsentLayers(Report* report) {
  for (const MetricDef& d : PerLayerDefs()) {
    if (!report->Has(d.name)) report->Set(d.name, 0.0, d.unit, 0);
  }
}

void SetLatency(Report* report, const std::string& prefix,
                const Percentiles& p) {
  report->Set(prefix + "_p50_ms", p.p50, "ms", p.samples);
  report->Set(prefix + "_p99_ms", p.p99, "ms", p.samples);
  if (!p.p99_supported()) {
    std::fprintf(stderr,
                 "perfbench: warning: %s_p99_ms has only %zu samples beyond "
                 "it in its thinnest of %zu windows (want %zu); lengthen "
                 "--seconds\n",
                 prefix.c_str(), p.beyond_p99, p.windows,
                 Percentiles::kMinTail);
  }
}

void WriteTrace(const Tracer& tracer, const Options& options) {
  std::filesystem::create_directories(options.work_dir);
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    throw std::runtime_error("cannot write trace " + path);
  }
  std::printf("trace: %zu spans in %s\n", tracer.size(), path.c_str());
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  return static_cast<double>(
             dblsh::perfmon::SampleMemory().peak_resident_bytes) /
         (1024.0 * 1024.0);
}

const float* Writer::UpsertRow(size_t i) const {
  const bool upsert =
      i < kLeadUpserts || (i - kLeadUpserts) % 3 != 2 || live_.empty();
  if (!upsert) return nullptr;
  return rows_->row(upserts_ % rows_->rows());
}

std::string Writer::Upserted(uint32_t id, uint32_t base_rows) {
  ++upserts_;
  if (id < base_rows) {
    return "upsert ack carries base row id " + std::to_string(id);
  }
  if (std::find(live_.begin(), live_.end(), id) != live_.end()) {
    return "upsert ack carries live id " + std::to_string(id);
  }
  live_.push_back(id);
  ever_.insert(std::upper_bound(ever_.begin(), ever_.end(), id), id);
  return "";
}

bool Writer::EverUpserted(uint32_t id) const {
  return std::binary_search(ever_.begin(), ever_.end(), id);
}

namespace {

/// Medians of one store's replayed layers over the traced queries.
struct StoreTimes {
  double verify_ms = 0.0;
  double prepare_us = 0.0;
  double score_ns = 0.0;
  double rerank_ms = 0.0;
};

/// Replays `store` under the index's own candidates: VerifyCandidates in
/// flushes of CandidateVerifier::kBatch (as the index calls it), then one
/// PrepareQuery, one ScoreBatch over all candidates and, for a quantized
/// store, ExactL2Squared over the k·rerank answer ids. Each is timed in
/// its own pass over the queries, so — as in the workload — a query's
/// rows were last touched many queries earlier and come from memory.
StoreTimes ReplayStore(const dblsh::VectorStore& store,
                       const FloatMatrix& queries,
                       const std::vector<std::vector<uint32_t>>& candidates,
                       const std::vector<QueryResponse>& answers,
                       const std::vector<uint64_t>& index_span, size_t depth,
                       bool rerank, const std::string& name, Tracer* tracer) {
  const FloatMatrix& rows = store.matrix();
  const size_t traced = candidates.size();
  std::vector<double> verify_ms, prepare_us, score_ns, rerank_ms;
  for (size_t q = 0; q < traced; ++q) {
    const std::vector<uint32_t>& ids = candidates[q];
    dblsh::TopKHeap heap(depth);
    const int64_t t0 = NowNs();
    for (size_t off = 0; off < ids.size();
         off += dblsh::CandidateVerifier::kBatch) {
      const size_t len =
          std::min(dblsh::CandidateVerifier::kBatch, ids.size() - off);
      dblsh::VerifyCandidates(queries.row(q), rows, ids.data() + off, len,
                              dblsh::VerifyOptions{}, &heap, nullptr);
    }
    const int64_t t1 = NowNs();
    tracer->Record(name + ".verify", t0, t1, static_cast<int64_t>(q),
                   index_span[q], true);
    verify_ms.push_back(NsToMs(t1 - t0));
  }
  std::vector<float> prep, scores;
  float sink = 0.f;
  for (size_t q = 0; q < traced; ++q) {
    const float* query = queries.row(q);
    const auto request_id = static_cast<int64_t>(q);
    const std::vector<uint32_t>& ids = candidates[q];
    int64_t t0 = NowNs();
    store.PrepareQuery(query, &prep);
    int64_t t1 = NowNs();
    tracer->Record(name + ".prepare", t0, t1, request_id, index_span[q],
                   true);
    prepare_us.push_back((t1 - t0) / 1e3);

    scores.resize(ids.size());
    t0 = NowNs();
    store.ScoreBatch(prep.data(), 0, ids.data(), ids.size(), scores.data());
    t1 = NowNs();
    tracer->Record(name + ".score", t0, t1, request_id, index_span[q], true);
    if (!ids.empty()) {
      score_ns.push_back(static_cast<double>(t1 - t0) /
                         static_cast<double>(ids.size()));
    }
    if (!rerank) continue;
    t0 = NowNs();
    for (const Neighbor& n : answers[q].neighbors) {
      if (n.id < rows.rows()) sink += store.ExactL2Squared(query, n.id);
    }
    t1 = NowNs();
    tracer->Record(name + ".rerank", t0, t1, request_id, 0, true);
    rerank_ms.push_back(NsToMs(t1 - t0));
  }
  if (sink == 12345.f) std::fprintf(stderr, " ");  // keep the replays live
  StoreTimes out;
  out.verify_ms = Median(verify_ms);
  out.prepare_us = Median(prepare_us);
  out.score_ns = Median(score_ns);
  out.rerank_ms = Median(rerank_ms);
  return out;
}

}  // namespace

std::map<int64_t, double> ReplayLayers(const LayerReplay& in, Tracer* tracer,
                                       Report* report, Outcomes* outcomes) {
  const Collection& c = *in.collection;
  const FloatMatrix& queries = *in.queries;
  const size_t nq = queries.rows();
  QueryRequest request;
  request.k = in.k;

  // In-process pass over every query: the QueryStats counts (summed over
  // shards by the collection) and one Collection::Search span per query.
  dblsh::QueryStats total;
  std::map<int64_t, double> collection_ms;
  for (size_t q = 0; q < nq; ++q) {
    const int64_t t0 = NowNs();
    auto got = c.Search(queries.row(q), request);
    const int64_t t1 = NowNs();
    tracer->Record("collection.search", t0, t1, static_cast<int64_t>(q));
    collection_ms[static_cast<int64_t>(q)] = NsToMs(t1 - t0);
    if (!got.ok()) {
      outcomes->Fail("search: " + got.status().ToString());
      continue;
    }
    outcomes->Ok();
    const dblsh::QueryStats& s = got.value().stats;
    total.candidates_verified += s.candidates_verified;
    total.points_accessed += s.points_accessed;
    total.rounds += s.rounds;
    total.window_queries += s.window_queries;
  }
  const double per = 1.0 / static_cast<double>(nq);
  report->Set("collection.search_ms", Median(Values(collection_ms)), "ms", nq);
  report->Set("dblsh.candidates", total.candidates_verified * per, "count",
              nq);
  report->Set("dblsh.points_accessed", total.points_accessed * per, "count",
              nq);
  report->Set("dblsh.rounds", total.rounds * per, "count", nq);
  report->Set("dblsh.windows", total.window_queries * per, "count", nq);
  report->Set("dblsh.dup_ratio",
              total.points_accessed == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(total.candidates_verified) /
                              static_cast<double>(total.points_accessed),
              "ratio", nq);

  // Per-query replays. The index is the collection's own shard-0
  // instance; the projection bank and the stores are benchmark-owned
  // copies built from the same parameters and rows.
  const auto* db = dynamic_cast<const dblsh::DbLsh*>(in.index);
  if (db == nullptr) throw std::runtime_error("shard 0 serves no DB-LSH index");
  const dblsh::DbLshParams& params = db->params();
  const dblsh::lsh::ProjectionBank bank(params.l * params.k, queries.cols(),
                                        params.seed);
  QueryRequest index_request;
  index_request.k = in.rerank > 0 ? in.k * in.rerank : in.k;
  const size_t base_rows = in.store->matrix().rows();
  const size_t traced = std::min(kTracedQueries, nq);

  // Pass 1, untimed: the index's answer and its scored candidates. A
  // pass-through filter sees every live candidate in verification order,
  // so the first candidates_verified ids are exactly the ones it scored.
  std::vector<QueryResponse> answers(traced);
  std::vector<std::vector<uint32_t>> candidates(traced);
  for (size_t q = 0; q < traced; ++q) {
    std::vector<uint32_t>& ids = candidates[q];
    QueryRequest capture = index_request;
    capture.filter = dblsh::QueryFilter::Of([&ids](uint32_t id) {
      ids.push_back(id);
      return true;
    });
    answers[q] = in.index->Search(queries.row(q), capture);
    ids.resize(std::min(ids.size(), answers[q].stats.candidates_verified));
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [&](uint32_t id) { return id >= base_rows; }),
              ids.end());
  }

  // Pass 2: Collection::Search on even queries, the shard-0 index search
  // on odd ones — interleaved, so host drift hits both alike.
  std::vector<double> collection_cold_ms, index_ms;
  std::vector<uint64_t> index_span(traced, 0);
  for (size_t q = 0; q < traced; ++q) {
    const auto request_id = static_cast<int64_t>(q);
    const int64_t t0 = NowNs();
    if (q % 2 == 0) {
      auto got = c.Search(queries.row(q), request);
      const int64_t t1 = NowNs();
      if (!got.ok()) Fatal("search", got.status());
      tracer->Record("collection.search", t0, t1, request_id);
      collection_cold_ms.push_back(NsToMs(t1 - t0));
    } else {
      in.index->Search(queries.row(q), index_request);
      const int64_t t1 = NowNs();
      index_span[q] = tracer->Record("dblsh.search", t0, t1, request_id);
      index_ms.push_back(NsToMs(t1 - t0));
    }
  }

  // Pass 3: projection, once per round (the query is re-projected every
  // round).
  std::vector<double> project_ms;
  std::vector<float> projected(bank.num_functions());
  float sink = 0.f;
  for (size_t q = 0; q < traced; ++q) {
    const int64_t t0 = NowNs();
    for (size_t r = 0; r < std::max<size_t>(1, answers[q].stats.rounds);
         ++r) {
      bank.ProjectAll(queries.row(q), projected.data());
      sink += projected[r % projected.size()];
    }
    const int64_t t1 = NowNs();
    tracer->Record("lsh.project", t0, t1, static_cast<int64_t>(q),
                   index_span[q], true);
    project_ms.push_back(NsToMs(t1 - t0));
  }
  if (sink == 12345.f) std::fprintf(stderr, " ");  // keep the replay live

  // Passes 4 and 5: the workload's own store, then the PQ probe's.
  const StoreTimes own =
      ReplayStore(*in.store, queries, candidates, answers, index_span,
                  index_request.k, in.rerank > 0, "store", tracer);
  const double index = Median(index_ms);
  const double project = Median(project_ms);
  report->Set("dblsh.search_ms", index, "ms", index_ms.size());
  report->Set("verify.score_ms", own.verify_ms, "ms", traced);
  report->Set("lsh.project_ms", project, "ms", traced);
  report->Set("rtree.probe_ms", index - own.verify_ms - project, "ms",
              traced);
  report->Set("store.prepare_us", own.prepare_us, "us", traced);
  report->Set("store.score_ns", own.score_ns, "ns", traced);
  if (in.rerank > 0) {
    report->Set("store.rerank_ms", own.rerank_ms, "ms", traced);
  }
  report->Set("collection.self_ms",
              Median(collection_cold_ms) - index - own.rerank_ms, "ms",
              collection_cold_ms.size());
  if (in.pq_probe != nullptr) {
    const StoreTimes pq =
        ReplayStore(*in.pq_probe, queries, candidates, answers, index_span,
                    index_request.k, /*rerank=*/true, "pq", tracer);
    report->Set("pq.verify_ms", pq.verify_ms, "ms", traced);
    report->Set("pq.prepare_us", pq.prepare_us, "us", traced);
    report->Set("pq.score_ns", pq.score_ns, "ns", traced);
    report->Set("pq.rerank_ms", pq.rerank_ms, "ms", traced);
  }

  // Index build over the benchmark-owned store (through its decode view,
  // as the collection builds over quantized rows).
  {
    auto made = dblsh::IndexFactory::Make(in.index_spec);
    if (!made.ok()) Fatal("index spec", made.status());
    dblsh::ScopedDecodeView view(in.store);
    const int64_t t0 = NowNs();
    const dblsh::Status built = made.value()->Build(&in.store->matrix());
    const int64_t t1 = NowNs();
    if (!built.ok()) Fatal("replayed build", built);
    tracer->Record("dblsh.build", t0, t1, -1, 0, true);
    report->Set("dblsh.build_s", (t1 - t0) / 1e9, "s", 1);
  }

  // SearchBatch over the traced queries on every executor thread, against
  // the single-search spans of the same queries.
  {
    FloatMatrix batch(traced, queries.cols());
    double single_ms = 0.0;
    for (size_t q = 0; q < traced; ++q) {
      std::copy_n(queries.row(q), queries.cols(), batch.mutable_row(q));
      single_ms += collection_ms[static_cast<int64_t>(q)];
    }
    const int64_t t0 = NowNs();
    auto got = c.SearchBatch(batch, request, "", 0);
    const int64_t t1 = NowNs();
    tracer->Record("exec.search_batch", t0, t1);
    if (!got.ok()) Fatal("SearchBatch", got.status());
    const double threads =
        std::max(1u, std::thread::hardware_concurrency());
    report->Set("exec.batch_efficiency",
                single_ms / (NsToMs(t1 - t0) * threads), "ratio", traced);
  }

  const dblsh::CollectionStorageInfo storage = c.Storage();
  report->Set("store.bytes_per_vector",
              static_cast<double>(storage.bytes_per_vector), "bytes", 1);
  report->Set("store.resident_mb",
              static_cast<double>(storage.resident_bytes) / (1024.0 * 1024.0),
              "MiB", 1);
  return collection_ms;
}

double WalAppendP50Ms(const std::string& dir, size_t dim, size_t appends) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/append-probe.wal";
  std::vector<double> ms;
  {
    auto writer = dblsh::durability::WalWriter::Create(
        path, static_cast<uint32_t>(dim), 1);
    if (!writer.ok()) Fatal("WAL probe", writer.status());
    std::vector<float> vec(dim, 0.5f);
    for (size_t i = 0; i < appends; ++i) {
      const int64_t t0 = NowNs();
      const dblsh::Status s = writer.value()->Append(
          i + 1, dblsh::durability::WalOp::kUpsert,
          static_cast<uint32_t>(i), vec.data());
      const int64_t t1 = NowNs();
      if (!s.ok()) Fatal("WAL probe append", s);
      ms.push_back(NsToMs(t1 - t0));
    }
  }
  std::filesystem::remove(path);
  return Summarize(ms).p50;
}

/// PqStore's subspace count on read-pq and in the PQ probe: 64 B per
/// vector against fp32's 512 B.
constexpr size_t kPqM = 64;

RunOutput RunRead(const Options& options, dblsh::StorageKind storage) {
  RunOutput out;
  Tracer tracer(options.trace);
  const std::string method = "DB-LSH,c=1.5";
  const bool fp32 = storage == dblsh::StorageKind::kFp32;
  const bool pq = storage == dblsh::StorageKind::kPq;
  std::string spec = "collection: " + method;
  if (storage == dblsh::StorageKind::kSq8) {
    spec = "collection,storage=sq8: " + method;
  } else if (pq) {
    spec = "collection,storage=pq,m=" + std::to_string(kPqM) + ": " + method;
  }

  Dataset data = MakeDataset(options.seed);
  const auto base_rows = static_cast<uint32_t>(data.base.rows());
  // Traced runs keep a copy of the rows for the benchmark-owned replay
  // store (on fp32 one more for the serve-mixed probe, on sq8 one for the
  // PQ probe); untraced runs hand the only copy to the last set-up.
  std::unique_ptr<FloatMatrix> replay_rows, pq_rows;
  Dataset probe;
  if (options.trace) {
    replay_rows = std::make_unique<FloatMatrix>(data.base);
    if (fp32) probe = data;
    if (storage == dblsh::StorageKind::kSq8) {
      pq_rows = std::make_unique<FloatMatrix>(data.base);
    }
  }

  // Set-up: FromSpec (store training + encoding + index build), several
  // times, the median reported; the last collection serves the run. PQ
  // sets up twice, not three times: its k-means takes ~12 s here. A
  // traced run reports no setup_s and sets up once.
  const size_t setups = options.trace ? 1 : (pq ? 2 : 3);
  std::vector<double> setup_s;
  std::unique_ptr<Collection> collection;
  for (size_t r = 0; r < setups; ++r) {
    const bool last = r + 1 == setups;
    collection.reset();
    auto rows = last ? std::make_unique<FloatMatrix>(std::move(data.base))
                     : std::make_unique<FloatMatrix>(data.base);
    if (last) ResetPeakRss();
    const int64_t t0 = NowNs();
    auto made = Collection::FromSpec(spec, std::move(rows));
    const int64_t t1 = NowNs();
    if (!made.ok()) Fatal("FromSpec", made.status());
    tracer.Record("collection.setup", t0, t1);
    setup_s.push_back((t1 - t0) / 1e9);
    collection = std::move(made).value();
  }
  Collection& c = *collection;

  // Timed phase: one thread, closed loop, cycling through the queries.
  const FloatMatrix& queries = data.queries;
  const size_t nq = queries.rows();
  QueryRequest request;
  request.k = kK;
  TimedSamples latency_ms;
  std::vector<std::vector<Neighbor>> first_answer(nq);
  std::vector<uint8_t> answered(nq, 0);
  auto is_live = [base_rows](uint32_t id) { return id < base_rows; };
  auto search = [&](size_t i, bool timed) {
    const size_t q = i % nq;
    const int64_t t0 = NowNs();
    auto got = c.Search(queries.row(q), request);
    const int64_t t1 = NowNs();
    if (timed) {
      latency_ms.Add(t0, NsToMs(t1 - t0));
      tracer.Record("collection.search", t0, t1, static_cast<int64_t>(q));
    }
    if (!got.ok()) {
      out.outcomes.Fail("search: " + got.status().ToString());
      return;
    }
    const std::vector<Neighbor>& nbrs = got.value().neighbors;
    std::string problem = CheckAnswer(nbrs, kK, is_live);
    // fp32 distances are exact: rank i can never beat the exact i-th
    // nearest distance.
    for (size_t r = 0; problem.empty() && fp32 && r < nbrs.size(); ++r) {
      if (nbrs[r].dist < data.truth[q][r].dist * (1.0f - 1e-4f) - 1e-4f) {
        problem = "distance below the exact neighbour's at rank " +
                  std::to_string(r);
      }
    }
    if (!problem.empty()) {
      out.outcomes.Invalid(problem);
      return;
    }
    out.outcomes.Ok();
    if (!answered[q]) {
      first_answer[q] = nbrs;
      answered[q] = 1;
    }
  };
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e9);
  size_t done = 0;
  while (NowNs() < end) search(done++, true);
  // Complete one pass over the queries (untimed) so recall covers all.
  for (size_t i = done; i < nq; ++i) search(i, false);
  double recall = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    recall += RecallById(first_answer[q], data.truth[q], kK);
  }
  recall /= static_cast<double>(nq);

  Report& report = out.report;
  const PhaseStats phase = SummarizePhase(latency_ms, start, options.seconds);
  const Percentiles& search_pct = phase.latency;
  if (options.trace) {
    report.Set("trace.search_p50_ms", search_pct.p50, "ms",
               search_pct.samples);
    int64_t t0 = NowNs();
    std::unique_ptr<dblsh::VectorStore> store =
        dblsh::MakeVectorStore(storage, std::move(replay_rows), kPqM);
    int64_t t1 = NowNs();
    tracer.Record("store.train", t0, t1, -1, 0, true);
    report.Set("store.train_s", (t1 - t0) / 1e9, "s", 1);
    // The PQ probe: read-pq's store, replayed under this run's
    // candidates.
    std::unique_ptr<dblsh::VectorStore> pq_store;
    if (pq_rows != nullptr) {
      t0 = NowNs();
      pq_store = dblsh::MakeVectorStore(dblsh::StorageKind::kPq,
                                        std::move(pq_rows), kPqM);
      t1 = NowNs();
      tracer.Record("pq.train", t0, t1, -1, 0, true);
      report.Set("pq.train_s", (t1 - t0) / 1e9, "s", 1);
    }
    LayerReplay replay;
    replay.collection = &c;
    replay.index = c.GetIndex("DB-LSH", 0);
    replay.store = store.get();
    replay.pq_probe = pq_store.get();
    replay.queries = &queries;
    replay.rerank = fp32 ? 0 : c.Storage().rerank;
    replay.index_spec = method;
    ReplayLayers(replay, &tracer, &report, &out.outcomes);
    // The serving and durability layers, measured on the same rows by
    // the serve-mixed probe.
    if (fp32) {
      collection.reset();
      MeasureServeMixed(options, std::move(probe), &tracer,
                        /*replay_layers=*/false, &out);
    }
    FillAbsentLayers(&report);
    WriteTrace(tracer, options);
    return out;
  }
  report.Set("setup_s", Median(setup_s), "s", setup_s.size());
  report.Set("search_qps", phase.rate, "1/s", done);
  SetLatency(&report, "search", search_pct);
  report.Set("recall_at_10", recall, "ratio", nq);
  report.Set("peak_rss_mb", PeakRssMb(), "MiB", 1);
  const Outcomes& o = out.outcomes;
  report.Set("ok_ratio",
             static_cast<double>(o.attempted - o.failed) /
                 static_cast<double>(std::max<uint64_t>(1, o.attempted)),
             "ratio", o.attempted);
  return out;
}

}  // namespace perfbench
