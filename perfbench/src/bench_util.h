// Small shared helpers of the perfbench binary: clocks, percentiles, process
// resource readings, and the failure log every check reports into.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// A tail percentile that one host stall cannot move: the samples (in the
// order they were taken) are cut into consecutive windows of `window`
// samples, and the median of the windows' q-percentiles is returned. A short
// last window is dropped unless it is the only one.
inline double WindowedPercentile(const std::vector<double>& samples,
                                 std::size_t window, double q) {
  if (samples.size() <= window) return Percentile(samples, q);
  std::vector<double> per_window;
  for (std::size_t at = 0; at + window <= samples.size(); at += window) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(at),
                            samples.begin() + static_cast<std::ptrdiff_t>(at + window)),
        q));
  }
  return Median(std::move(per_window));
}

inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// User + system CPU time of a process (pid 0 = this process), microseconds.
// -1 when unreadable.
double ProcessCpuUs(pid_t pid);

// Peak resident set (VmHWM) of a process (pid 0 = this process), MiB. -1 when
// unreadable.
double ProcessPeakRssMb(pid_t pid);

}  // namespace perfbench
