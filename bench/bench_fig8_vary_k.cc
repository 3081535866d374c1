// Reproduces Figure 8: recall and overall ratio when varying k in
// {1, 10, 20, ..., 100} at default parameters. The paper's shape: accuracy
// degrades slightly as k grows for every method (fewer candidates per
// returned point), and DB-LSH stays on top by ~5-10% recall at each k.
#include <cstdio>

#include "bench/common.h"
#include "dataset/ground_truth.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace dblsh {
namespace {

void RunDataset(const std::string& name, double scale, size_t queries,
                const std::vector<size_t>& ks) {
  const size_t max_k = ks.back();
  eval::Workload base = bench::ProfileWorkload(name, scale, queries, max_k);
  std::printf("Dataset %s (n = %zu, d = %zu)\n", name.c_str(),
              base.data.rows(), base.data.cols());

  std::vector<std::string> headers = {"Method"};
  for (size_t k : ks) headers.push_back("k=" + std::to_string(k));
  eval::Table recall_table(headers);
  eval::Table ratio_table(headers);

  const auto methods = eval::MakePaperMethods(base.data.rows());
  for (const auto& method : methods) {
    std::vector<std::string> recall_row = {method->Name()};
    std::vector<std::string> ratio_row = {method->Name()};
    // Build once; sweep k at query time (all methods take k per query).
    bench::ExitIfFailed(method->Name(), method->Build(&base.data));
    for (size_t k : ks) {
      double recall = 0.0, ratio = 0.0;
      for (size_t q = 0; q < base.queries.rows(); ++q) {
        const auto answer = method->Query(base.queries.row(q), k);
        const std::vector<Neighbor> gt(
            base.ground_truth[q].begin(),
            base.ground_truth[q].begin() +
                std::min(k, base.ground_truth[q].size()));
        recall += eval::Recall(answer, gt);
        ratio += eval::OverallRatio(answer, gt);
      }
      recall_row.push_back(
          eval::Table::Fmt(recall / double(base.queries.rows()), 3));
      ratio_row.push_back(
          eval::Table::Fmt(ratio / double(base.queries.rows()), 4));
    }
    recall_table.AddRow(std::move(recall_row));
    ratio_table.AddRow(std::move(ratio_row));
  }
  std::printf("Fig. 8 recall vs k:\n");
  recall_table.Print();
  std::printf("Fig. 8 overall ratio vs k:\n");
  ratio_table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace dblsh

int main(int argc, char** argv) {
  dblsh::bench::Flags flags(argc, argv);
  dblsh::bench::PrintBanner(
      "Figure 8: effect of k",
      "Accuracy decays mildly with k for all methods; DB-LSH keeps the "
      "highest recall and smallest ratio at every k (lead of ~5-10% recall "
      "over the second best).");
  const double scale = flags.GetDouble("scale", 0.1);
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 25));
  const std::vector<size_t> ks = {1, 10, 20, 40, 60, 80, 100};
  dblsh::RunDataset(flags.GetString("dataset1", "Gist"), scale, queries, ks);
  dblsh::RunDataset(flags.GetString("dataset2", "TinyImages80M"), scale,
                    queries, ks);
  return 0;
}
