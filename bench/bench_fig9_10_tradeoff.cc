// Reproduces Figures 9-10: recall-time and ratio-time trade-off curves.
// The paper varies the approximation ratio c; equivalently each method's
// accuracy knob is swept here (candidate budget / probes), which traces the
// same curve: more time -> higher recall, lower ratio. The paper's shape:
// DB-LSH needs the least time to reach any given recall/ratio (10-70% less
// than the second best), and every curve improves monotonically with time.
#include <cstdio>

#include "bench/common.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace dblsh {
namespace {

/// One point of a method's trade-off curve: the factory spec of the
/// configured index plus the knob setting that produced it.
struct CurvePoint {
  std::string knob;
  std::string spec;
};

/// Each method's accuracy knob swept as factory-spec overrides: the
/// candidate budget t for DB-LSH/FB-LSH, the verification budget beta for
/// the budgeted baselines, and the probe count for LCCS-LSH.
std::vector<CurvePoint> MakeCurve(const std::string& method, size_t n) {
  std::vector<CurvePoint> points;
  if (method == "DB-LSH" || method == "FB-LSH") {
    const std::string hint =
        method == "FB-LSH" ? ",n=" + std::to_string(n) : "";
    for (size_t t : {5, 15, 40, 100, 250}) {
      points.push_back({"t=" + std::to_string(t),
                        method + hint + ",t=" + std::to_string(t)});
    }
  } else if (method == "LCCS-LSH") {
    for (size_t probes : {64, 256, 1024, 4096, 16384}) {
      points.push_back({"probes=" + std::to_string(probes),
                        method + ",probes=" + std::to_string(probes)});
    }
  } else {
    for (double beta : {0.005, 0.02, 0.08, 0.2, 0.5}) {
      points.push_back({"beta=" + eval::Table::Fmt(beta, 3),
                        method + ",beta=" + eval::Table::Fmt(beta, 3)});
    }
  }
  return points;
}

void RunDataset(const std::string& name, double scale, size_t queries,
                size_t k) {
  const eval::Workload workload =
      bench::ProfileWorkload(name, scale, queries, k);
  std::printf("Dataset %s (n = %zu, d = %zu, k = %zu)\n", name.c_str(),
              workload.data.rows(), workload.data.cols(), k);
  eval::Table table(
      {"Method", "Knob", "QueryTime", "Recall", "OverallRatio"});
  for (const std::string& method :
       {std::string("DB-LSH"), std::string("FB-LSH"), std::string("LCCS-LSH"),
        std::string("PM-LSH"), std::string("R2LSH"), std::string("VHP"),
        std::string("LSB-Forest"), std::string("QALSH")}) {
    for (const auto& point : MakeCurve(method, workload.data.rows())) {
      auto result = eval::RunSpec(point.spec, workload);
      bench::ExitIfFailed(point.spec, result.status());
      const auto& r = result.value();
      table.AddRow({method, point.knob, eval::Table::FmtMs(r.avg_query_ms),
                    eval::Table::Fmt(r.recall, 4),
                    eval::Table::Fmt(r.overall_ratio, 4)});
    }
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace dblsh

int main(int argc, char** argv) {
  dblsh::bench::Flags flags(argc, argv);
  dblsh::bench::PrintBanner(
      "Figures 9-10: recall-time and ratio-time trade-off curves",
      "Reading each method's (time, recall) / (time, ratio) pairs as a "
      "curve: DB-LSH takes the least time to reach any target recall or "
      "ratio, reducing query time by 10-70% vs the second best method.");
  const double scale = flags.GetDouble("scale", 0.08);
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 20));
  const auto k = static_cast<size_t>(flags.GetInt("k", 50));
  for (const std::string& name :
       {std::string("Trevi"), std::string("Gist"), std::string("SIFT10M"),
        std::string("TinyImages80M")}) {
    dblsh::RunDataset(name, scale, queries, k);
  }
  return 0;
}
