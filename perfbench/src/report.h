#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The metrics of one run, in the order they were set. Each carries its
/// unit and the number of samples it summarizes.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples);

  bool Has(const std::string& name) const;

  /// Human-readable table: name, value, unit, samples.
  std::string Table() const;

  /// The machine-readable result line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}, values with full precision.
  std::string ResultLine(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
