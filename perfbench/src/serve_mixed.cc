// serve-mixed: a durable 2-shard collection reopened from a prepared
// directory and served over loopback. One pipelined connection sends
// searches open-loop at a fixed rate, a second sends upserts and deletes
// open-loop at an eighth of that rate, and the main thread checkpoints
// periodically. Latency is charged from each request's due time.
//
// Its latencies swing with fsync and thread wake-up delays too much for a
// regression gate (see perfbench/README.md), so BENCHMARK.json does not
// list it: the traced read-fp32 run measures it as a probe and reports
// its numbers as per-layer metrics, and `--workload serve-mixed` runs it
// on its own.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "data.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using dblsh::Collection;
using dblsh::FloatMatrix;
using dblsh::QueryRequest;

namespace {

/// Searches per second offered by the search connection: about a quarter
/// of the ~1400/s at which this collection saturates on a 4-vCPU host.
constexpr double kSearchRate = 400.0;
/// Writes per second offered by the write connection: a run of 20 s or
/// more has the 1000 writes a p99 with ten samples beyond it needs.
constexpr double kWriteRate = 50.0;
/// Period of the in-process checkpoints during the timed phase (five land
/// in a 30 s run). Each holds every shard's writer lock while it copies
/// the rows, stalling the searches that arrive meanwhile.
constexpr double kCheckpointPeriodS = 5.0;
/// Upsert+delete pairs laid into the WAL tail during preparation.
constexpr size_t kTailPairs = 1000;
/// Searches kept in flight while measuring recall over the wire.
constexpr size_t kRecallWindow = 50;

std::string SpecFor(const std::string& dir, const std::string& method) {
  return "collection,shards=2,durability=" + dir + ": " + method;
}

}  // namespace

RunOutput RunServeMixed(const Options& options) {
  RunOutput out;
  Tracer tracer(options.trace);
  MeasureServeMixed(options, MakeDataset(options.seed), &tracer,
                    /*replay_layers=*/true, &out);
  if (options.trace) {
    FillAbsentLayers(&out.report);
    WriteTrace(tracer, options);
  }
  return out;
}

void MeasureServeMixed(const Options& options, Dataset data, Tracer* tracer,
                       bool replay_layers, RunOutput* run) {
  namespace fs = std::filesystem;
  RunOutput& out = *run;
  const std::string method = "DB-LSH,c=1.5";
  const std::string dir =
      options.work_dir + "/serve-mixed-" + std::to_string(::getpid());

  const FloatMatrix write_rows = MakeWriteRows(data.base, 256, options.seed);
  const FloatMatrix tail_rows =
      MakeWriteRows(data.base, kTailPairs, options.seed + 1);
  const auto base_rows = static_cast<uint32_t>(data.base.rows());
  const size_t dim = data.base.cols();
  const FloatMatrix& queries = data.queries;
  const size_t nq = queries.rows();
  // Shard 0 holds the even global ids, in order: its rows for the
  // benchmark-owned replay store of a traced run.
  std::unique_ptr<FloatMatrix> replay_rows;
  if (options.trace && replay_layers) {
    replay_rows = std::make_unique<FloatMatrix>();
    for (size_t g = 0; g < data.base.rows(); g += 2) {
      replay_rows->AppendRow(data.base.row(g), dim);
    }
  }

  // Preparation (untimed): seed build + initial checkpoint, then a WAL
  // tail of upserts and deletes that nets to zero, then close.
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string prepared = dir + "/prepared";
  {
    auto made = Collection::FromSpec(
        SpecFor(prepared, method),
        std::make_unique<FloatMatrix>(std::move(data.base)));
    if (!made.ok()) Fatal("prepare", made.status());
    Collection& c = *made.value();
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < kTailPairs; ++i) {
      auto id = c.Upsert(tail_rows.row(i), dim);
      if (!id.ok()) Fatal("prepare upsert", id.status());
      ids.push_back(id.value());
    }
    for (const uint32_t id : ids) {
      const dblsh::Status s = c.Delete(id);
      if (!s.ok()) Fatal("prepare delete", s);
    }
  }

  // Set-up: reopen a fresh copy of the prepared directory (recovery +
  // index rebuild) and start the server, several times; the last serves.
  const std::string live_dir = dir + "/live";
  std::vector<double> setup_s;
  std::unique_ptr<Collection> collection;
  std::unique_ptr<dblsh::serve::Server> server;
  double open_ms = 0.0;
  const size_t setups = options.trace ? 1 : 3;
  for (size_t r = 0; r < setups; ++r) {
    server.reset();
    collection.reset();
    fs::remove_all(live_dir);
    fs::copy(prepared, live_dir, fs::copy_options::recursive);
    if (r + 1 == setups) ResetPeakRss();
    const int64_t t0 = NowNs();
    auto opened = Collection::Open(SpecFor(live_dir, method));
    const int64_t t1 = NowNs();
    if (!opened.ok()) Fatal("Open", opened.status());
    collection = std::move(opened).value();
    auto started =
        dblsh::serve::Server::Start({{"main", collection.get()}}, {});
    const int64_t t2 = NowNs();
    if (!started.ok()) Fatal("Server::Start", started.status());
    server = std::move(started).value();
    tracer->Record("collection.open", t0, t1);
    tracer->Record("serve.start", t1, t2);
    setup_s.push_back((t2 - t0) / 1e9);
    open_ms = NsToMs(t1 - t0);
  }
  Collection& c = *collection;
  const dblsh::CollectionDurabilityInfo opened_info = c.Durability();

  auto connect = [&]() {
    auto client = dblsh::serve::Client::Connect("127.0.0.1", server->port());
    if (!client.ok()) Fatal("connect", client.status());
    return std::move(client).value();
  };
  std::unique_ptr<dblsh::serve::Client> search_client = connect();
  std::unique_ptr<dblsh::serve::Client> write_client = connect();

  // Timed phase.
  QueryRequest request;
  request.k = kK;
  const int64_t start = NowNs() + 20'000'000;
  const OpenLoopSchedule search_schedule(start, kSearchRate, options.seconds);
  const OpenLoopSchedule write_schedule(start, kWriteRate, options.seconds);
  std::vector<RequestTiming> search_timing(search_schedule.count());
  // Request id -> request index, registered by the sender once a send
  // returned; the receiver waits for the entry when a reply beats it.
  std::mutex pending_mutex;
  std::condition_variable pending_cv;
  std::unordered_map<uint64_t, size_t> pending;  // guarded by pending_mutex
  std::atomic<size_t> sent{0};
  std::atomic<bool> sending_done{false};
  Outcomes send_outcomes, receive_outcomes, write_outcomes;
  std::vector<uint32_t> unknown_ids;  // non-base ids answered; checked later
  auto live_or_later = [&](uint32_t id) {
    if (id >= base_rows) unknown_ids.push_back(id);
    return true;
  };

  std::thread sender([&] {
    for (size_t i = 0; i < search_schedule.count(); ++i) {
      RequestTiming& t = search_timing[i];
      t.due_ns = search_schedule.due_ns(i);
      SleepUntil(t.due_ns);
      t.sent_ns = NowNs();
      auto id = search_client->SendSearch("main", queries.row(i % nq), dim,
                                          request);
      if (!id.ok()) {
        send_outcomes.Fail("send search: " + id.status().ToString());
        continue;
      }
      {
        std::lock_guard lock(pending_mutex);
        pending[id.value()] = i;
      }
      pending_cv.notify_one();
      sent.fetch_add(1);
    }
    sending_done.store(true);
  });

  std::thread receiver([&] {
    size_t received = 0;
    while (true) {
      if (received >= sent.load()) {
        if (sending_done.load() && received >= sent.load()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      auto reply = search_client->ReceiveSearchReply();
      const int64_t now = NowNs();
      if (!reply.ok()) {
        // The connection is gone: every outstanding search failed.
        while (received < sent.load() || !sending_done.load()) {
          if (received < sent.load()) {
            receive_outcomes.Fail("receive: " + reply.status().ToString());
            ++received;
          } else {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        break;
      }
      ++received;
      size_t i = 0;
      {
        std::unique_lock lock(pending_mutex);
        const uint64_t id = reply.value().request_id;
        if (!pending_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return pending.count(id) > 0; })) {
          receive_outcomes.Invalid("reply to an unknown request");
          continue;
        }
        i = pending.at(id);
        pending.erase(id);
      }
      RequestTiming& t = search_timing[i];
      t.done_ns = now;
      if (!reply.value().status.ok()) {
        receive_outcomes.Fail("search: " + reply.value().status.ToString());
        continue;
      }
      const std::string problem = CheckAnswer(
          reply.value().reply.response.neighbors, kK, live_or_later);
      if (!problem.empty()) {
        receive_outcomes.Invalid(problem);
        continue;
      }
      t.ok = true;
      receive_outcomes.Ok();
    }
  });

  Writer writer(&write_rows);
  std::vector<RequestTiming> write_timing;
  std::thread write_thread([&] {
    write_timing = RunOpenLoop(write_schedule, [&](size_t i) {
      const float* row = writer.UpsertRow(i);
      if (row != nullptr) {
        auto id = write_client->Upsert("main", row, dim);
        if (!id.ok()) {
          write_outcomes.Fail("upsert: " + id.status().ToString());
          return false;
        }
        const std::string problem = writer.Upserted(id.value(), base_rows);
        if (!problem.empty()) {
          write_outcomes.Invalid(problem);
          return false;
        }
        write_outcomes.Ok();
        return true;
      }
      const dblsh::Status s = write_client->Delete("main", writer.Victim());
      writer.Deleted();
      if (!s.ok()) {
        write_outcomes.Fail("delete: " + s.ToString());
        return false;
      }
      write_outcomes.Ok();
      return true;
    });
    // Untimed: delete what the writer still has live, so the live rows
    // equal the base rows again.
    while (!writer.live().empty()) {
      const dblsh::Status s = write_client->Delete("main", writer.Victim());
      writer.Deleted();
      if (s.ok()) {
        write_outcomes.Ok();
      } else {
        write_outcomes.Fail("cleanup delete: " + s.ToString());
      }
    }
  });

  // Checkpoints, from the main thread.
  std::vector<double> checkpoint_ms;
  Outcomes checkpoint_outcomes;
  for (int64_t due = start + static_cast<int64_t>(kCheckpointPeriodS * 1e9);
       due < search_schedule.end_ns();
       due += static_cast<int64_t>(kCheckpointPeriodS * 1e9)) {
    SleepUntil(due);
    const int64_t t0 = NowNs();
    const dblsh::Status s = c.Checkpoint();
    const int64_t t1 = NowNs();
    tracer->Record("durability.checkpoint", t0, t1);
    checkpoint_ms.push_back(NsToMs(t1 - t0));
    if (s.ok()) {
      checkpoint_outcomes.Ok();
    } else {
      checkpoint_outcomes.Fail("checkpoint: " + s.ToString());
    }
  }
  sender.join();
  receiver.join();
  write_thread.join();

  // Searches may name rows the writer inserted: each must be one it
  // had acknowledged.
  for (const uint32_t id : unknown_ids) {
    if (!writer.EverUpserted(id)) {
      receive_outcomes.Invalid("id " + std::to_string(id) + " never existed");
    }
  }

  // Recall over the wire, now that the live rows are the base rows again.
  Outcomes recall_outcomes;
  double recall = 0.0;
  auto is_base = [base_rows](uint32_t id) { return id < base_rows; };
  for (size_t lo = 0; lo < nq; lo += kRecallWindow) {
    const size_t hi = std::min(nq, lo + kRecallWindow);
    std::unordered_map<uint64_t, size_t> ids;
    for (size_t q = lo; q < hi; ++q) {
      auto id = search_client->SendSearch("main", queries.row(q), dim,
                                          request);
      if (!id.ok()) Fatal("recall send", id.status());
      ids[id.value()] = q;
    }
    for (size_t n = lo; n < hi; ++n) {
      auto reply = search_client->ReceiveSearchReply();
      if (!reply.ok()) Fatal("recall receive", reply.status());
      const size_t q = ids.at(reply.value().request_id);
      if (!reply.value().status.ok()) {
        recall_outcomes.Fail("recall search: " +
                             reply.value().status.ToString());
        continue;
      }
      const auto& nbrs = reply.value().reply.response.neighbors;
      const std::string problem = CheckAnswer(nbrs, kK, is_base);
      if (!problem.empty()) {
        recall_outcomes.Invalid(problem);
        continue;
      }
      recall_outcomes.Ok();
      recall += RecallById(nbrs, data.truth[q], kK);
    }
  }
  recall /= static_cast<double>(nq);

  auto stats = search_client->Stats();
  if (!stats.ok()) Fatal("Stats", stats.status());
  const dblsh::serve::ServerStats& served = stats.value().server;
  const dblsh::CollectionDurabilityInfo durability = c.Durability();
  const double peak_rss_mb = PeakRssMb();

  for (const Outcomes* o : {&send_outcomes, &receive_outcomes,
                            &write_outcomes, &checkpoint_outcomes,
                            &recall_outcomes}) {
    out.outcomes.Merge(*o);
  }

  TimedSamples search_ms;
  std::vector<double> late_ms;
  size_t completed = 0;
  int64_t last_done = start;
  for (const RequestTiming& t : search_timing) {
    late_ms.push_back(t.late_ms());
    if (!t.ok) continue;
    search_ms.Add(t.due_ns, t.latency_ms());
    ++completed;
    last_done = std::max(last_done, t.done_ns);
  }
  std::vector<double> write_ms, write_service_ms;
  for (const RequestTiming& t : write_timing) {
    late_ms.push_back(t.late_ms());
    write_ms.push_back(t.latency_ms());
    write_service_ms.push_back(t.service_ms());
    tracer->Record("serve.write", t.sent_ns, t.done_ns);
  }
  const Percentiles search_pct =
      SummarizePhase(search_ms, start, options.seconds).latency;
  Report& report = out.report;

  if (options.trace) {
    std::map<int64_t, double> in_process;
    if (replay_layers) {
      report.Set("trace.search_p50_ms", search_pct.p50, "ms",
                 search_pct.samples);
      const int64_t t0 = NowNs();
      auto store = dblsh::MakeVectorStore(dblsh::StorageKind::kFp32,
                                          std::move(replay_rows));
      const int64_t t1 = NowNs();
      tracer->Record("store.train", t0, t1, -1, 0, true);
      report.Set("store.train_s", (t1 - t0) / 1e9, "s", 1);
      LayerReplay replay;
      replay.collection = &c;
      replay.index = c.GetIndex("DB-LSH", 0);
      replay.store = store.get();
      replay.queries = &queries;
      replay.index_spec = method;
      in_process = ReplayLayers(replay, tracer, &report, &out.outcomes);
    } else {
      QueryRequest one;
      one.k = kK;
      for (size_t q = 0; q < nq; ++q) {
        const int64_t t0 = NowNs();
        auto got = c.Search(queries.row(q), one);
        const int64_t t1 = NowNs();
        if (!got.ok()) Fatal("search", got.status());
        in_process[static_cast<int64_t>(q)] = NsToMs(t1 - t0);
      }
    }

    // Wire round trip (from the actual send) minus the in-process search
    // of the same query.
    std::vector<double> overhead;
    for (size_t i = 0; i < search_timing.size(); ++i) {
      if (!search_timing[i].ok) continue;
      overhead.push_back(search_timing[i].service_ms() -
                         in_process[static_cast<int64_t>(i % nq)]);
    }
    report.Set("serve.overhead_p50_ms", Summarize(overhead).p50, "ms",
               overhead.size());

    // In-process writes on the served collection (durable, fsynced).
    constexpr size_t kProbeWrites = 200;
    std::vector<uint32_t> probe_ids;
    std::vector<double> upsert_ms, delete_ms;
    for (size_t i = 0; i < kProbeWrites; ++i) {
      const int64_t a = NowNs();
      auto id = c.Upsert(write_rows.row(i % write_rows.rows()), dim);
      const int64_t b = NowNs();
      tracer->Record("collection.durable_upsert", a, b);
      upsert_ms.push_back(NsToMs(b - a));
      if (!id.ok()) Fatal("probe upsert", id.status());
      probe_ids.push_back(id.value());
    }
    for (const uint32_t id : probe_ids) {
      const int64_t a = NowNs();
      const dblsh::Status s = c.Delete(id);
      const int64_t b = NowNs();
      tracer->Record("collection.durable_delete", a, b);
      delete_ms.push_back(NsToMs(b - a));
      if (!s.ok()) Fatal("probe delete", s);
    }
    report.Set("collection.upsert_p50_ms", Summarize(upsert_ms).p50, "ms",
               kProbeWrites);
    report.Set("collection.delete_p50_ms", Summarize(delete_ms).p50, "ms",
               kProbeWrites);
    report.Set("durability.wal_append_p50_ms",
               WalAppendP50Ms(options.work_dir, dim, kProbeWrites), "ms",
               kProbeWrites);
    std::vector<double> inproc_write_ms = upsert_ms;
    inproc_write_ms.insert(inproc_write_ms.end(), delete_ms.begin(),
                           delete_ms.end());
    report.Set("serve.write_overhead_p50_ms",
               Summarize(write_service_ms).p50 -
                   Summarize(inproc_write_ms).p50,
               "ms", write_service_ms.size());
    const Percentiles write_pct = Summarize(write_ms);
    report.Set("serve.search_p50_ms", search_pct.p50, "ms",
               search_pct.samples);
    report.Set("serve.search_p99_ms", search_pct.p99, "ms",
               search_pct.samples);
    report.Set("serve.write_p50_ms", write_pct.p50, "ms", write_pct.samples);
    report.Set("serve.write_p99_ms", write_pct.p99, "ms", write_pct.samples);
    report.Set("serve.mean_batch", served.mean_batch_size, "count",
               served.batches_dispatched);
    report.Set("serve.failed",
               static_cast<double>(served.shed_overload +
                                   served.rejected_deadline +
                                   served.protocol_errors),
               "count", served.requests);
    report.Set("durability.reopen_s", setup_s.back(), "s", 1);
    report.Set("durability.recovery_ms", opened_info.recovery_ms, "ms", 1);
    report.Set("durability.open_rebuild_ms",
               open_ms - opened_info.recovery_ms, "ms", 1);
    report.Set("durability.replayed_records",
               static_cast<double>(opened_info.replayed_records), "count", 1);
    report.Set("durability.wal_appends",
               static_cast<double>(durability.wal_appends), "count", 1);
    report.Set("durability.checkpoint_ms", Median(checkpoint_ms), "ms",
               checkpoint_ms.size());
    const Percentiles late = Summarize(late_ms);
    report.Set("loadgen.late_p99_ms", late.p99, "ms", late.samples);
  } else {
    report.Set("setup_s", Median(setup_s), "s", setup_s.size());
    report.Set("search_qps",
               static_cast<double>(completed) / ((last_done - start) / 1e9),
               "1/s", completed);
    SetLatency(&report, "search", search_pct);
    report.Set("recall_at_10", recall, "ratio", nq);
    report.Set("peak_rss_mb", peak_rss_mb, "MiB", 1);
    const Outcomes& o = out.outcomes;
    report.Set("ok_ratio",
               static_cast<double>(o.attempted - o.failed) /
                   static_cast<double>(std::max<uint64_t>(1, o.attempted)),
               "ratio", o.attempted);
  }

  search_client.reset();
  write_client.reset();
  server.reset();
  collection.reset();
  fs::remove_all(dir);
}

}  // namespace perfbench
