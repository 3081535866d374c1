// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload read-fp32|read-sq8|read-pq|serve-mixed --seed N
//             [--seconds S] [--trace 0|1] [--work-dir DIR]
//
// Generates the workload's data from the seed, sets the program up,
// measures for --seconds, checks every answer, and prints a metric table
// followed by one JSON result line. --trace 0 reports the end-to-end
// metrics; --trace 1 is a separate run that records spans around the
// calls into each layer and reports the per-layer metrics instead. Exits
// 1 when an answer was invalid, 2 on a usage or set-up failure.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "read-fp32|read-sq8|read-pq|serve-mixed --seed N "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (options.seconds <= 0) return Usage("--seconds must be positive");

  perfbench::RunOutput out;
  try {
    if (options.workload == "read-fp32") {
      out = perfbench::RunRead(options, dblsh::StorageKind::kFp32);
    } else if (options.workload == "read-sq8") {
      out = perfbench::RunRead(options, dblsh::StorageKind::kSq8);
    } else if (options.workload == "read-pq") {
      out = perfbench::RunRead(options, dblsh::StorageKind::kPq);
    } else if (options.workload == "serve-mixed") {
      out = perfbench::RunServeMixed(options);
    } else {
      return Usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }

  const auto& names = options.trace ? perfbench::PerLayerNames()
                                    : perfbench::EndToEndNames();
  for (const std::string& name : names) {
    if (!out.report.Has(name)) {
      std::fprintf(stderr, "perfbench: internal error: %s not measured\n",
                   name.c_str());
      return 2;
    }
  }
  const perfbench::Outcomes& o = out.outcomes;
  const bool correct = o.invalid == 0;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("%s", out.report.Table().c_str());
  std::printf("operations: %llu attempted, %llu failed, %llu invalid%s%s\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.invalid),
              o.first_problem.empty() ? "" : "; first: ",
              o.first_problem.c_str());
  std::printf("%s\n",
              out.report.ResultLine(correct, o.attempted, o.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
