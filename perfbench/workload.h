#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.h"

/// The three workloads the driver runs. Each is a closed loop: a pass
/// starts only after the previous one returned.
namespace perfbench {

/// The universe the benches default to (bench/bench_common.h).
inline constexpr std::size_t kDomains = 1500;
/// Vantages per subdomain lookup, as in the benches' default config.
inline constexpr std::size_t kLookupVantages = 4;

/// Collects output-check failures. Any failure makes the run incorrect.
class Checker {
 public:
  /// Records one mismatch; the first few are printed to stderr.
  void fail(const std::string& what);
  bool ok() const noexcept { return failures_ == 0; }

 private:
  std::size_t failures_ = 0;
};

/// What one pass did.
struct Pass {
  /// Wall and process CPU time of the timed part. Output checks run
  /// after it and are not counted.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// Work done, in the workload's throughput unit (domains, resolves, or
  /// MB of pcap file).
  double units = 0.0;
  /// Operations attempted and failed, as defined per workload.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-operation latencies, for workloads that time single operations.
  std::vector<double> latencies_us;
  /// Per-layer readings; filled on traced passes only.
  Layers layers;
};

/// Times the timed part of a pass: construct at its start, stop() at its end.
class Stopwatch {
 public:
  void stop(Pass& pass) const {
    pass.wall_s = wall_s() - wall_start_;
    pass.cpu_s = cpu_s() - cpu_start_;
  }

 private:
  double wall_start_ = wall_s();
  double cpu_start_ = cpu_s();
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`, replacing any earlier ones. Sub-step
  /// times go to `layers` (synth.world.build_ms, synth.traffic.generate_ms).
  /// Files the workload writes go under `scratch_dir`.
  virtual void setup(std::uint64_t seed, const std::string& scratch_dir,
                     Layers& layers) = 0;

  /// One pass over the inputs. `traced` wraps the layers in timers and
  /// counters; the untraced pass is what the end-to-end metrics time.
  /// Output mismatches go to `checker`.
  virtual Pass run(bool traced, Checker& checker) = 0;

  /// Checks that need a second, independent computation. Runs after the
  /// timed passes (and after peak RSS is read).
  virtual void final_check(Checker& /*checker*/) {}

  /// Name and unit of the throughput in the human-readable report.
  virtual const char* throughput_name() const = 0;
  virtual const char* throughput_unit() const = 0;
};

std::unique_ptr<Workload> make_census();
std::unique_ptr<Workload> make_lookups();
std::unique_ptr<Workload> make_capture();

}  // namespace perfbench
