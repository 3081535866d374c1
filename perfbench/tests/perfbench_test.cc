// Self-tests of the benchmark's own measurement code: recall by id, answer
// checks, open-loop accounting, percentiles, spans and the writer's
// sequence. Run with `python3 perfbench/run.py --selftest`.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "answers.h"
#include "common.h"
#include "core/collection.h"
#include "core/index_factory.h"
#include "data.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/metrics.h"
#include "loadgen.h"
#include "trace.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using dblsh::FloatMatrix;
using dblsh::Neighbor;

struct Small {
  FloatMatrix base;
  FloatMatrix queries;
  std::vector<std::vector<Neighbor>> truth;
};

Small MakeSmall() {
  dblsh::ClusteredSpec spec;
  spec.n = 3050;
  spec.dim = 16;
  spec.clusters = 8;
  spec.center_spread = 30.0;
  spec.seed = 5;
  Small s;
  dblsh::SplitQueries(dblsh::GenerateClustered(spec), 50, 6, &s.base,
                      &s.queries);
  s.truth = dblsh::ComputeGroundTruth(s.base, s.queries, 10);
  return s;
}

void TestRecallByIdMatchesDistanceRecallOnFp32(const Small& s) {
  auto made = dblsh::Collection::FromSpec(
      "collection: DB-LSH,c=1.5", std::make_unique<FloatMatrix>(s.base));
  CHECK(made.ok());
  dblsh::QueryRequest request;
  request.k = 10;
  for (size_t q = 0; q < s.queries.rows(); ++q) {
    auto got = made.value()->Search(s.queries.row(q), request);
    CHECK(got.ok());
    const auto& nbrs = got.value().neighbors;
    CHECK(std::fabs(perfbench::RecallById(nbrs, s.truth[q], 10) -
                    dblsh::eval::Recall(nbrs, s.truth[q])) < 1e-12);
  }
}

void TestRecallByIdIsOneOnLinearScan(const Small& s) {
  auto index = dblsh::IndexFactory::Make("LinearScan");
  CHECK(index.ok());
  CHECK(index.value()->Build(&s.base).ok());
  for (size_t q = 0; q < s.queries.rows(); ++q) {
    const auto nbrs = index.value()->Query(s.queries.row(q), 10);
    CHECK(perfbench::RecallById(nbrs, s.truth[q], 10) == 1.0);
  }
}

void TestRecallByIdCountsQuantizedAnswers(const Small& s) {
  // Quantized collections return store distances, which a distance-
  // matched recall rejects; matching by id still credits the right rows.
  auto made = dblsh::Collection::FromSpec(
      "collection,storage=pq,m=8: DB-LSH,c=1.5",
      std::make_unique<FloatMatrix>(s.base));
  CHECK(made.ok());
  dblsh::QueryRequest request;
  request.k = 10;
  double by_id = 0.0, by_distance = 0.0;
  for (size_t q = 0; q < s.queries.rows(); ++q) {
    auto got = made.value()->Search(s.queries.row(q), request);
    CHECK(got.ok());
    by_id += perfbench::RecallById(got.value().neighbors, s.truth[q], 10);
    by_distance += dblsh::eval::Recall(got.value().neighbors, s.truth[q]);
  }
  CHECK(by_id > by_distance);
  CHECK(by_id / static_cast<double>(s.queries.rows()) > 0.3);
}

void TestCheckAnswer() {
  auto live = [](uint32_t id) { return id < 100; };
  const std::vector<Neighbor> good = {{1.f, 3}, {2.f, 4}, {2.f, 7}};
  CHECK(perfbench::CheckAnswer(good, 3, live).empty());
  CHECK(!perfbench::CheckAnswer(good, 2, live).empty());  // more than k
  CHECK(!perfbench::CheckAnswer({{2.f, 3}, {1.f, 4}}, 10, live).empty());
  CHECK(!perfbench::CheckAnswer({{1.f, 3}, {2.f, 3}}, 10, live).empty());
  CHECK(!perfbench::CheckAnswer({{1.f, 300}}, 10, live).empty());
  CHECK(!perfbench::CheckAnswer({{NAN, 3}}, 10, live).empty());
  CHECK(!perfbench::CheckAnswer({{-1.f, 3}}, 10, live).empty());
}

void TestOpenLoopChargesStallToLaterRequests() {
  // 1000 requests/s for 60 ms; request 5 stalls 30 ms. Requests due
  // during the stall are sent late and charged from their due time.
  const perfbench::OpenLoopSchedule schedule(perfbench::NowNs(), 1000.0,
                                             0.06);
  CHECK(schedule.count() == 60);
  const auto timings = perfbench::RunOpenLoop(schedule, [](size_t i) {
    if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  CHECK(timings.size() == 60);
  CHECK(timings[5].service_ms() >= 30.0);
  // Request 10 was due 5 ms after request 5 but could only go when the
  // stall ended: its own service is short, its latency is not.
  CHECK(timings[10].service_ms() < 5.0);
  CHECK(timings[10].latency_ms() >= 20.0);
  CHECK(timings[10].late_ms() >= 20.0);
  // Every request is sent no earlier than its due time.
  for (const auto& t : timings) CHECK(t.sent_ns >= t.due_ns);
}

void TestPercentiles() {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const perfbench::Percentiles small = perfbench::Summarize(values);
  CHECK(small.samples == 100);
  CHECK(small.p50 == 50.0);
  CHECK(small.p99 == 99.0);
  CHECK(small.beyond_p99 == 1);
  CHECK(!small.p99_supported());
  values.clear();
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const perfbench::Percentiles large = perfbench::Summarize(values);
  CHECK(large.p99 == 990.0);
  CHECK(large.beyond_p99 == 10);
  CHECK(large.p99_supported());
  CHECK(perfbench::Median({3.0, 1.0, 2.0, 10.0}) == 2.5);
}

void TestPhaseSummaryIgnoresOneBurst() {
  // A 30 s phase of 1000 samples per second, 1..1000 each second; in
  // second 7 every sample is 10000 (a burst of host noise). The p50 is
  // the mean of per-second p50s, so the burst shifts it by a thirtieth of
  // its excess; the p99 is the median of 5 s windows' p99s, which the
  // burst does not move.
  perfbench::TimedSamples samples, calm;
  for (int sec = 0; sec < 30; ++sec) {
    for (int i = 1; i <= 1000; ++i) {
      const int64_t at = sec * 1'000'000'000LL + i * 1'000'000LL - 1;
      samples.Add(at, sec == 7 ? 10000.0 : i);
      calm.Add(at, i);
    }
  }
  CHECK(perfbench::Summarize(samples.values).p99 == 10000.0);
  const perfbench::PhaseStats burst =
      perfbench::SummarizePhase(samples, 0, 30.0);
  CHECK(std::fabs(burst.rate - 1000.0) < 1e-9);
  CHECK(burst.latency.samples == 30000);
  CHECK(burst.latency.windows == 6);
  CHECK(std::fabs(burst.latency.p50 - (29 * 500.0 + 10000.0) / 30) < 1e-9);
  CHECK(burst.latency.p99 == 990.0);
  CHECK(!burst.latency.p99_supported());  // nothing beyond the burst's p99
  const perfbench::PhaseStats steady = perfbench::SummarizePhase(calm, 0, 30.0);
  CHECK(steady.latency.p50 == 500.0);
  CHECK(steady.latency.p99 == 990.0);
  CHECK(steady.latency.beyond_p99 == 50);
  CHECK(steady.latency.p99_supported());
}

void TestTracer() {
  perfbench::Tracer off(false);
  CHECK(off.Record("x", 0, 10) == 0);
  CHECK(off.size() == 0);
  perfbench::Tracer on(true);
  const uint64_t parent = on.Record("parent", 0, 4'000'000, 7);
  const uint64_t child =
      on.Record("child", 1'000'000, 2'000'000, 7, parent, true);
  CHECK(parent != 0);
  CHECK(child != 0 && child != parent);
  CHECK(on.size() == 2);
}

void TestWriterSequence() {
  FloatMatrix rows(4, 2);
  perfbench::Writer writer(&rows);
  uint32_t next_id = 1000;
  size_t deletes = 0;
  for (size_t i = 0; i < 200; ++i) {
    const float* row = writer.UpsertRow(i);
    if (i < perfbench::kLeadUpserts) CHECK(row != nullptr);
    if (row != nullptr) {
      CHECK(writer.Upserted(next_id++, 1000).empty());
    } else {
      CHECK(writer.EverUpserted(writer.Victim()));
      writer.Deleted();
      ++deletes;
    }
    CHECK(writer.live().size() == next_id - 1000 - deletes);
  }
  CHECK(deletes == (200 - perfbench::kLeadUpserts) / 3);
  CHECK(!writer.Upserted(5, 1000).empty());                  // a base row
  CHECK(!writer.Upserted(writer.live().back(), 1000).empty());  // live
}

}  // namespace

int main() {
  const Small small = MakeSmall();
  TestRecallByIdMatchesDistanceRecallOnFp32(small);
  TestRecallByIdIsOneOnLinearScan(small);
  TestRecallByIdCountsQuantizedAnswers(small);
  TestCheckAnswer();
  TestOpenLoopChargesStallToLaterRequests();
  TestPercentiles();
  TestPhaseSummaryIgnoresOneBurst();
  TestTracer();
  TestWriterSequence();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
