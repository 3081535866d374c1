#include "bench/common.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dblsh::bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "1";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atoll(it->second.c_str());
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Flags::Has(const std::string& key) const { return values_.count(key); }

eval::Workload ProfileWorkload(const std::string& name, double scale,
                               size_t num_queries, size_t k, uint64_t seed) {
  for (const auto& profile : PaperDatasetProfiles(scale)) {
    if (profile.name == name) {
      return eval::MakeWorkload(name, GenerateProfile(profile, seed),
                                num_queries, k, seed + 1);
    }
  }
  throw std::runtime_error("unknown dataset profile: " + name);
}

void PrintBanner(const std::string& experiment, const std::string& claim) {
  std::printf("=== %s ===\n", experiment.c_str());
  std::printf("Paper reference: %s\n\n", claim.c_str());
}

}  // namespace dblsh::bench
