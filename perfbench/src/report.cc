#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string FullPrecision(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back({name, value, unit, samples});
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

std::string Report::Table() const {
  std::string out;
  char line[256];
  for (const Metric& m : metrics_) {
    std::snprintf(line, sizeof(line), "  %-30s %16.6f %-6s n=%zu\n",
                  m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    out += line;
  }
  return out;
}

std::string Report::ResultLine(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + FullPrecision(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
