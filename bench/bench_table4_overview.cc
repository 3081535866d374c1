// Reproduces Table IV: performance overview — query time, overall ratio,
// recall, and indexing time for the full method lineup on stand-ins for the
// paper's datasets ((c,k)-ANN, k = 50, c = 1.5, 100 held-out queries).
//
// Default settings are laptop-scale (docs/ARCHITECTURE.md,
// "Substitutions"); pass --scale=1.0 --queries=100 --datasets=all for the
// full sweep. Absolute times differ from the paper's testbed; the shape to
// check is: DB-LSH has the smallest indexing time, the best query time at
// equal-or-better recall, and beats FB-LSH on all three query metrics.
#include <cstdio>
#include <memory>

#include "bench/common.h"
#include "dataset/stats.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace dblsh {
namespace {

void Run(const std::vector<std::string>& datasets, double scale,
         size_t queries, size_t k, double c) {
  for (const std::string& name : datasets) {
    const eval::Workload workload =
        bench::ProfileWorkload(name, scale, queries, k);
    const DatasetStats stats = EstimateStats(workload.data, 30);
    std::printf("Dataset %s: n = %zu, d = %zu, k = %zu "
                "(relative contrast %.2f, LID %.1f)\n",
                name.c_str(), workload.data.rows(), workload.data.cols(), k,
                stats.relative_contrast, stats.lid);
    eval::Table table({"Method", "QueryTime", "OverallRatio", "Recall",
                       "IndexingTime(s)", "#HashFns", "AvgCandidates"});
    for (const auto& method : eval::MakePaperMethods(workload.data.rows(),
                                                     c)) {
      auto result = eval::RunMethod(method.get(), workload);
      bench::ExitIfFailed(method->Name(), result.status());
      const auto& r = result.value();
      table.AddRow({r.method, eval::Table::FmtMs(r.avg_query_ms),
                    eval::Table::Fmt(r.overall_ratio, 4),
                    eval::Table::Fmt(r.recall, 4),
                    eval::Table::Fmt(r.indexing_time_sec, 3),
                    std::to_string(r.hash_functions),
                    eval::Table::Fmt(r.avg_candidates, 0)});
    }
    table.Print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace dblsh

int main(int argc, char** argv) {
  dblsh::bench::Flags flags(argc, argv);
  dblsh::bench::PrintBanner(
      "Table IV: performance overview",
      "DB-LSH offers the best query performance on all datasets: smallest "
      "indexing time, 10-70% lower query time than FB-LSH at higher recall, "
      "and ~40% lower query time than the second-best competitor.");
  const double scale = flags.GetDouble("scale", 0.1);
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 30));
  const auto k = static_cast<size_t>(flags.GetInt("k", 50));
  const double c = flags.GetDouble("c", 1.5);

  std::vector<std::string> datasets;
  const std::string which = flags.GetString("datasets", "default");
  if (which == "all") {
    for (const auto& p : dblsh::PaperDatasetProfiles(1.0)) {
      datasets.push_back(p.name);
    }
  } else if (which == "default") {
    datasets = {"Audio", "MNIST", "NUS", "Deep1M", "Gist", "SIFT10M"};
  } else {
    // Comma-separated list of profile names.
    std::string rest = which;
    while (!rest.empty()) {
      const size_t comma = rest.find(',');
      datasets.push_back(rest.substr(0, comma));
      rest = (comma == std::string::npos) ? "" : rest.substr(comma + 1);
    }
  }
  dblsh::Run(datasets, scale, queries, k, c);
  return 0;
}
