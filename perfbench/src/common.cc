#include "common.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

Percentiles Summarize(std::vector<double> values) {
  Percentiles out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  auto rank = [&](double q) {
    // Nearest-rank: the smallest value with at least q of the samples at
    // or below it.
    const size_t r = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<size_t>(r, 1, values.size()) - 1];
  };
  out.p50 = rank(0.50);
  out.p99 = rank(0.99);
  out.beyond_p99 = static_cast<size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), out.p99));
  return out;
}

namespace {

/// The samples of one window, with the first and last stamp in it.
struct Window {
  std::vector<double> values;
  int64_t first_ns = 0;
  int64_t last_ns = 0;
};

/// Splits `samples` (in stamp order) into `windows` equal windows of the
/// phase.
std::vector<Window> Cut(const TimedSamples& samples, int64_t start_ns,
                        double seconds, size_t windows) {
  const double window_ns = seconds * 1e9 / static_cast<double>(windows);
  std::vector<Window> cut(windows);
  for (size_t i = 0; i < samples.values.size(); ++i) {
    const auto w = static_cast<size_t>(
        std::max(0.0, (samples.at_ns[i] - start_ns) / window_ns));
    Window& window = cut[std::min(w, windows - 1)];
    if (window.values.empty()) window.first_ns = samples.at_ns[i];
    window.last_ns = samples.at_ns[i];
    window.values.push_back(samples.values[i]);
  }
  return cut;
}

}  // namespace

PhaseStats SummarizePhase(const TimedSamples& samples, int64_t start_ns,
                          double seconds) {
  PhaseStats out;
  const size_t n = samples.values.size();
  out.latency.samples = n;
  if (n >= 2 && samples.at_ns.back() > samples.at_ns.front()) {
    out.rate = static_cast<double>(n - 1) * 1e9 /
               static_cast<double>(samples.at_ns.back() - samples.at_ns.front());
  }
  const size_t seconds_cut = std::max<size_t>(1, static_cast<size_t>(seconds));
  double p50_sum = 0.0;
  size_t p50_windows = 0;
  for (Window& w : Cut(samples, start_ns, seconds, seconds_cut)) {
    if (w.values.empty()) continue;
    p50_sum += Summarize(std::move(w.values)).p50;
    ++p50_windows;
  }
  out.latency.p50 = p50_windows == 0 ? 0.0 : p50_sum / p50_windows;
  const size_t tail_cut =
      std::max<size_t>(1, static_cast<size_t>(seconds / kTailWindowS));
  out.latency.windows = tail_cut;
  out.latency.beyond_p99 = samples.values.size();
  std::vector<double> p99s;
  for (Window& w : Cut(samples, start_ns, seconds, tail_cut)) {
    const Percentiles p = Summarize(std::move(w.values));
    p99s.push_back(p.p99);
    out.latency.beyond_p99 = std::min(out.latency.beyond_p99, p.beyond_p99);
  }
  out.latency.p99 = Median(p99s);
  return out;
}

}  // namespace perfbench
