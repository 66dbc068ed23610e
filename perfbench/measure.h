#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

/// Clocks, resource readings and order statistics shared by the workloads.
namespace perfbench {

/// Per-layer readings of one traced pass (or one set-up), keyed by the
/// metric names listed in BENCHMARK.json's per_layer block.
using Layers = std::map<std::string, double>;

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of the whole process (every thread), in seconds.
inline double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size of this program image so far, in MB (10^6
/// bytes). Read from VmHWM rather than ru_maxrss, which also remembers the
/// peak of the image that exec'd this one (run.py's interpreter).
inline double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // reported in kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

/// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// a / b, or 0 when there is nothing to divide by (a layer the workload
/// does not cross).
inline double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// `value` with every digit a double carries.
inline std::string full_digits(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace perfbench
