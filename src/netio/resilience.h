#pragma once

#include <cstdint>

/// The socket client's retransmission timer, deliberately clock-free:
/// RTT samples are microsecond values the caller passes in (measured on
/// the reactor's monotonic clock), so the estimator is unit-testable with
/// a scripted timeline and never reads a clock itself.
///
/// RtoEstimator is RFC 6298's adaptive retransmission timeout, one per
/// server: SRTT/RTTVAR from clean samples only (Karn's rule — the
/// transport must not feed RTTs measured on retransmitted exchanges),
/// exponential backoff on timer expiry, backoff cleared by the next clean
/// sample.
namespace cs::netio {

/// RFC 6298 with the standard gains (alpha 1/8, beta 1/4, K=4).
class RtoEstimator {
 public:
  struct Options {
    std::uint64_t initial_us = 100'000;  ///< RTO before the first sample
    std::uint64_t min_us = 5'000;
    std::uint64_t max_us = 2'000'000;
  };

  explicit RtoEstimator(Options options) noexcept;

  /// Feeds one clean (never-retransmitted) sample; clears any backoff.
  void observe_rtt(std::uint64_t rtt_us) noexcept;

  /// Timer expiry: doubles the RTO up to max_us (Karn backoff).
  void on_timeout() noexcept;

  std::uint64_t rto_us() const noexcept { return rto_us_; }
  bool seeded() const noexcept { return seeded_; }
  double srtt_us() const noexcept { return srtt_us_; }
  double rttvar_us() const noexcept { return rttvar_us_; }

 private:
  Options options_;
  bool seeded_ = false;
  double srtt_us_ = 0.0;
  double rttvar_us_ = 0.0;
  std::uint64_t rto_us_ = 0;
};

}  // namespace cs::netio
