// Ablation benches for DB-LSH's design choices:
//   bucketing  - dynamic query-centric buckets vs fixed grid cells on the
//                identical (K,L)-index (the paper's DB-LSH vs FB-LSH story)
//   bulkload   - STR bulk loading vs one-by-one R* insertion (the paper
//                credits bulk loading for DB-LSH's smallest indexing time)
//   t_sweep    - candidate budget constant t of Remark 2
//   w0_sweep   - initial bucket width w0 = 2 gamma c^2 of Lemma 3
//   early_stop - early-termination slack (the paper's Sec. VII direction)
// Run all by default or one via --exp=<name>. The datasets are laptop-scale
// stand-ins (docs/ARCHITECTURE.md, "Substitutions").
#include <cstdio>
#include <string>

#include "bench/common.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace dblsh {
namespace {

void RunBucketing(const eval::Workload& workload) {
  std::printf("--- Ablation: dynamic vs fixed bucketing (same K, L, t) ---\n");
  eval::Table table({"Bucketing", "QueryTime", "Recall", "OverallRatio",
                     "AvgCandidates"});
  for (const bool dynamic : {true, false}) {
    const std::string spec =
        std::string(dynamic ? "DB-LSH" : "FB-LSH") + ",k=8,l=5,t=40";
    auto result = eval::RunSpec(spec, workload);
    bench::ExitIfFailed(spec, result.status());
    const auto& r = result.value();
    table.AddRow({dynamic ? "dynamic (DB-LSH)" : "fixed grid (FB-LSH)",
                  eval::Table::FmtMs(r.avg_query_ms),
                  eval::Table::Fmt(r.recall, 4),
                  eval::Table::Fmt(r.overall_ratio, 4),
                  eval::Table::Fmt(r.avg_candidates, 0)});
  }
  table.Print();
  std::printf("\n");
}

void RunBulkLoad(const eval::Workload& workload) {
  std::printf("--- Ablation: STR bulk loading vs R* insertion ---\n");
  eval::Table table({"Construction", "IndexingTime(s)", "QueryTime",
                     "Recall"});
  for (const bool bulk : {true, false}) {
    const std::string spec =
        std::string("DB-LSH,bulk_load=") + (bulk ? "1" : "0");
    auto result = eval::RunSpec(spec, workload);
    bench::ExitIfFailed(spec, result.status());
    const auto& r = result.value();
    table.AddRow({bulk ? "STR bulk load" : "one-by-one R* insert",
                  eval::Table::Fmt(r.indexing_time_sec, 3),
                  eval::Table::FmtMs(r.avg_query_ms),
                  eval::Table::Fmt(r.recall, 4)});
  }
  table.Print();
  std::printf("\n");
}

void RunTSweep(const eval::Workload& workload) {
  std::printf("--- Ablation: candidate budget constant t (Remark 2) ---\n");
  eval::Table table({"t", "Budget 2tL+k", "QueryTime", "Recall",
                     "OverallRatio"});
  for (const size_t t : {5, 10, 20, 40, 80, 160, 320}) {
    const std::string spec = "DB-LSH,l=5,t=" + std::to_string(t);
    auto result = eval::RunSpec(spec, workload);
    bench::ExitIfFailed(spec, result.status());
    const auto& r = result.value();
    table.AddRow({std::to_string(t),
                  std::to_string(2 * t * 5 + workload.k),
                  eval::Table::FmtMs(r.avg_query_ms),
                  eval::Table::Fmt(r.recall, 4),
                  eval::Table::Fmt(r.overall_ratio, 4)});
  }
  table.Print();
  std::printf("\n");
}

void RunEarlyStop(const eval::Workload& workload) {
  std::printf(
      "--- Ablation: early-stop slack (Sec. VII future work) ---\n");
  eval::Table table({"Slack", "QueryTime", "Recall", "OverallRatio",
                     "AvgCandidates"});
  for (const double slack : {1.0, 1.25, 1.5, 2.0, 3.0}) {
    const std::string spec =
        "DB-LSH,early_stop_slack=" + eval::Table::Fmt(slack, 2);
    auto result = eval::RunSpec(spec, workload);
    bench::ExitIfFailed(spec, result.status());
    const auto& r = result.value();
    table.AddRow({eval::Table::Fmt(slack, 2),
                  eval::Table::FmtMs(r.avg_query_ms),
                  eval::Table::Fmt(r.recall, 4),
                  eval::Table::Fmt(r.overall_ratio, 4),
                  eval::Table::Fmt(r.avg_candidates, 0)});
  }
  table.Print();
  std::printf("\n");
}

void RunW0Sweep(const eval::Workload& workload) {
  std::printf("--- Ablation: initial bucket width w0 = 2 gamma c^2 ---\n");
  eval::Table table({"gamma", "w0", "QueryTime", "Recall", "OverallRatio",
                     "AvgCandidates"});
  const double c = 1.5;
  for (const double gamma : {0.5, 1.0, 2.0, 3.0, 4.0}) {
    const double w0 = 2.0 * gamma * c * c;
    const std::string spec = "DB-LSH,c=" + eval::Table::Fmt(c, 2) +
                             ",w0=" + eval::Table::Fmt(w0, 3);
    auto result = eval::RunSpec(spec, workload);
    bench::ExitIfFailed(spec, result.status());
    const auto& r = result.value();
    table.AddRow({eval::Table::Fmt(gamma, 1),
                  eval::Table::Fmt(w0, 2),
                  eval::Table::FmtMs(r.avg_query_ms),
                  eval::Table::Fmt(r.recall, 4),
                  eval::Table::Fmt(r.overall_ratio, 4),
                  eval::Table::Fmt(r.avg_candidates, 0)});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace dblsh

int main(int argc, char** argv) {
  dblsh::bench::Flags flags(argc, argv);
  dblsh::bench::PrintBanner(
      "Ablations: DB-LSH design choices",
      "Dynamic bucketing beats fixed at equal budget; bulk loading builds "
      "far faster than insertion with identical query quality; recall "
      "saturates as t grows; moderate gamma balances candidate quality vs "
      "window cost.");
  const double scale = flags.GetDouble("scale", 0.1);
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 25));
  const auto k = static_cast<size_t>(flags.GetInt("k", 20));
  const dblsh::eval::Workload workload = dblsh::bench::ProfileWorkload(
      flags.GetString("dataset", "Deep1M"), scale, queries, k);
  std::printf("Dataset %s (n = %zu, d = %zu)\n\n", workload.name.c_str(),
              workload.data.rows(), workload.data.cols());

  const std::string exp = flags.GetString("exp", "all");
  if (exp == "all" || exp == "bucketing") dblsh::RunBucketing(workload);
  if (exp == "all" || exp == "bulkload") dblsh::RunBulkLoad(workload);
  if (exp == "all" || exp == "t_sweep") dblsh::RunTSweep(workload);
  if (exp == "all" || exp == "w0_sweep") dblsh::RunW0Sweep(workload);
  if (exp == "all" || exp == "early_stop") dblsh::RunEarlyStop(workload);
  return 0;
}
