// Reproduces Figures 5-7: query time, recall and overall ratio as the
// dataset cardinality grows through 0.2n, 0.4n, 0.6n, 0.8n, n, on the
// Gist-like and TinyImages-like stand-ins. The paper's shape: DB-LSH's
// query time grows sub-linearly and slowest among all methods, while
// recall and ratio stay roughly flat for all methods (the distribution is
// unchanged), with DB-LSH on top throughout.
#include <cstdio>

#include "bench/common.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace dblsh {
namespace {

void RunDataset(const std::string& name, double scale, size_t queries,
                size_t k) {
  // Generate the full-size dataset once; each fraction takes a prefix so
  // the distribution is identical across points of the sweep.
  eval::Workload full = bench::ProfileWorkload(name, scale, queries, k);
  std::printf("Dataset %s (full n = %zu, d = %zu)\n", name.c_str(),
              full.data.rows(), full.data.cols());

  eval::Table time_table({"Method", "0.2n", "0.4n", "0.6n", "0.8n", "1.0n"});
  eval::Table recall_table(
      {"Method", "0.2n", "0.4n", "0.6n", "0.8n", "1.0n"});
  eval::Table ratio_table(
      {"Method", "0.2n", "0.4n", "0.6n", "0.8n", "1.0n"});

  const auto method_count =
      eval::MakePaperMethods(full.data.rows()).size();
  std::vector<std::vector<std::string>> time_rows(method_count),
      recall_rows(method_count), ratio_rows(method_count);

  for (int step = 1; step <= 5; ++step) {
    const size_t n = full.data.rows() * step / 5;
    eval::Workload w;
    w.name = full.name;
    w.k = full.k;
    w.data = full.data.Prefix(n);
    w.queries = full.queries;
    w.ground_truth = ComputeGroundTruth(w.data, w.queries, w.k);
    const auto methods = eval::MakePaperMethods(n);
    for (size_t m = 0; m < methods.size(); ++m) {
      auto result = eval::RunMethod(methods[m].get(), w);
      bench::ExitIfFailed(methods[m]->Name(), result.status());
      const auto& r = result.value();
      if (time_rows[m].empty()) {
        time_rows[m].push_back(r.method);
        recall_rows[m].push_back(r.method);
        ratio_rows[m].push_back(r.method);
      }
      time_rows[m].push_back(eval::Table::FmtMs(r.avg_query_ms));
      recall_rows[m].push_back(eval::Table::Fmt(r.recall, 4));
      ratio_rows[m].push_back(eval::Table::Fmt(r.overall_ratio, 4));
    }
  }
  for (auto& row : time_rows) time_table.AddRow(std::move(row));
  for (auto& row : recall_rows) recall_table.AddRow(std::move(row));
  for (auto& row : ratio_rows) ratio_table.AddRow(std::move(row));

  std::printf("Fig. 5 (query time vs n):\n");
  time_table.Print();
  std::printf("Fig. 6 (recall vs n):\n");
  recall_table.Print();
  std::printf("Fig. 7 (overall ratio vs n):\n");
  ratio_table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace dblsh

int main(int argc, char** argv) {
  dblsh::bench::Flags flags(argc, argv);
  dblsh::bench::PrintBanner(
      "Figures 5-7: effect of cardinality n",
      "DB-LSH leads on all metrics at every fraction of the data; its query "
      "time grows much more slowly than competitors (sub-linear cost), and "
      "accuracy stays roughly stable with n for all methods.");
  const double scale = flags.GetDouble("scale", 0.1);
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 25));
  const auto k = static_cast<size_t>(flags.GetInt("k", 50));
  dblsh::RunDataset(flags.GetString("dataset1", "Gist"), scale, queries, k);
  dblsh::RunDataset(flags.GetString("dataset2", "TinyImages80M"), scale,
                    queries, k);
  return 0;
}
