#ifndef DBLSH_BENCH_COMMON_H_
#define DBLSH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>

#include "dataset/synthetic.h"
#include "eval/runner.h"

namespace dblsh::bench {

/// Minimal --key=value flag parsing shared by the bench binaries.
class Flags {
 public:
  Flags(int argc, char** argv);

  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  bool Has(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Builds the stand-in workload for a named paper dataset (Table III),
/// scaled by `scale`. Names match `PaperDatasetProfiles`.
eval::Workload ProfileWorkload(const std::string& name, double scale,
                               size_t num_queries, size_t k,
                               uint64_t seed = 7);

/// Prints the standard bench banner (what the binary reproduces and the
/// paper-reported reference shape).
void PrintBanner(const std::string& experiment, const std::string& claim);

}  // namespace dblsh::bench

#endif  // DBLSH_BENCH_COMMON_H_
