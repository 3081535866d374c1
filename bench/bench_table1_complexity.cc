// Reproduces Table I: comparison of typical LSH methods — indexing/query
// style, index size, and query cost. The asymptotic columns are the paper's;
// the numeric columns instantiate the formulas at concrete n and c so the
// claimed separation (rho* << rho <= 1/c) is visible as actual K, L and
// candidate counts.
#include <cmath>
#include <cstdio>

#include "bench/common.h"
#include "eval/table.h"
#include "lsh/collision.h"
#include "lsh/params.h"

namespace dblsh {
namespace {

void Run(size_t n, double c, size_t t) {
  const double w0 = 4.0 * c * c;  // paper default (gamma = 2)
  const double rho_star = lsh::RhoQueryCentric(1.0, c, w0);
  const double rho_static = lsh::RhoStatic(1.0, c, w0);
  const double alpha = lsh::AlphaForGamma(2.0);

  std::printf("n = %zu, c = %.2f, w0 = 4c^2 = %.2f, t = %zu\n", n, c, w0, t);
  std::printf("rho* = %.4f (bound 1/c^%.3f = %.4f), static rho = %.4f, "
              "1/c = %.4f\n\n",
              rho_star, alpha, std::pow(c, -alpha), rho_static, 1.0 / c);

  const auto derived = lsh::DeriveParams(n, c, w0, t);
  bench::ExitIfFailed("DB-LSH", derived.status());
  const double nd = static_cast<double>(n);

  eval::Table table({"Algorithm", "Indexing", "Query", "K", "L",
                     "IndexSize (entries)", "QueryCost (candidates)"});
  const auto& p = derived.value();
  table.AddRow({"DB-LSH", "Dynamic", "Query-centric", std::to_string(p.k),
                std::to_string(p.l),
                std::to_string(static_cast<size_t>(nd) * p.k * p.l),
                std::to_string(2 * t * p.l + 1)});
  // E2LSH / LSB-Forest: static (K,L)-index at rho_static; K from p2 of the
  // static family, L = n^rho.
  {
    const double p2 = lsh::CollisionProbStatic(c, w0);
    const auto k = static_cast<size_t>(
        std::ceil(std::log(nd) / std::log(1.0 / p2)));
    const auto l = static_cast<size_t>(std::ceil(std::pow(nd, rho_static)));
    table.AddRow({"E2LSH", "Static", "Query-oblivious", std::to_string(k),
                  std::to_string(l),
                  std::to_string(static_cast<size_t>(nd) * k * l),
                  std::to_string(2 * l)});
    table.AddRow({"LSB-Forest", "Static", "Query-oblivious",
                  std::to_string(k), std::to_string(l),
                  std::to_string(static_cast<size_t>(nd) * k * l),
                  std::to_string(2 * l)});
  }
  // C2 methods: K = O(log n) one-dimensional structures; query cost is not
  // sub-linear (worst case all n points counted).
  {
    const auto k = static_cast<size_t>(std::ceil(std::log2(nd)));
    table.AddRow({"QALSH (C2)", "Dynamic", "Query-centric",
                  std::to_string(k), "1",
                  std::to_string(static_cast<size_t>(nd) * k),
                  "O(n) worst case"});
    table.AddRow({"VHP (C2)", "Dynamic", "Query-centric", "O(1)", "1",
                  std::to_string(static_cast<size_t>(nd) * 60),
                  "O(n) worst case"});
    table.AddRow({"R2LSH (C2)", "Dynamic", "Query-centric", "O(1)", "1",
                  std::to_string(static_cast<size_t>(nd) * 40),
                  "O(n) worst case"});
  }
  // MQ methods: O(n) index, beta*n verification.
  {
    const double beta = 0.08;
    table.AddRow({"SRS (MQ)", "Dynamic", "Query-centric", "6-15", "1",
                  std::to_string(static_cast<size_t>(nd) * 6),
                  std::to_string(static_cast<size_t>(beta * nd)) + " (bn)"});
    table.AddRow({"PM-LSH (MQ)", "Dynamic", "Query-centric", "15", "1",
                  std::to_string(static_cast<size_t>(nd) * 15),
                  std::to_string(static_cast<size_t>(beta * nd)) + " (bn)"});
  }
  table.Print();
}

}  // namespace
}  // namespace dblsh

int main(int argc, char** argv) {
  dblsh::bench::Flags flags(argc, argv);
  dblsh::bench::PrintBanner(
      "Table I: complexity comparison of typical LSH methods",
      "DB-LSH achieves O(n^rho* d log n) query cost with rho* <= 1/c^alpha "
      "(alpha = 4.746 at w0 = 4c^2), vs rho <= 1/c for static (K,L) methods "
      "and linear worst cases for C2/MQ methods.");
  const auto n = static_cast<size_t>(flags.GetInt("n", 1000000));
  const double c = flags.GetDouble("c", 1.5);
  const auto t = static_cast<size_t>(flags.GetInt("t", 100));
  dblsh::Run(n, c, t);
  return 0;
}
