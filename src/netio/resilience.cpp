#include "netio/resilience.h"

#include <algorithm>

namespace cs::netio {
namespace {

std::uint64_t clamp_rto(std::uint64_t rto_us,
                        const RtoEstimator::Options& options) noexcept {
  return std::clamp(rto_us, options.min_us, options.max_us);
}

}  // namespace

RtoEstimator::RtoEstimator(Options options) noexcept : options_(options) {
  if (options_.min_us == 0) options_.min_us = 1;
  if (options_.max_us < options_.min_us) options_.max_us = options_.min_us;
  rto_us_ = clamp_rto(options_.initial_us, options_);
}

void RtoEstimator::observe_rtt(std::uint64_t rtt_us) noexcept {
  const double rtt = static_cast<double>(rtt_us);
  if (!seeded_) {
    // First sample: SRTT <- R, RTTVAR <- R/2 (RFC 6298 §2.2).
    seeded_ = true;
    srtt_us_ = rtt;
    rttvar_us_ = rtt / 2.0;
  } else {
    // RTTVAR <- (1-beta)RTTVAR + beta|SRTT-R|, SRTT <- (1-alpha)SRTT +
    // alpha R, with beta 1/4 and alpha 1/8 (§2.3) — variance first, from
    // the pre-update SRTT.
    const double err = srtt_us_ > rtt ? srtt_us_ - rtt : rtt - srtt_us_;
    rttvar_us_ = 0.75 * rttvar_us_ + 0.25 * err;
    srtt_us_ = 0.875 * srtt_us_ + 0.125 * rtt;
  }
  // A fresh clean sample replaces any backed-off RTO (§5.7).
  rto_us_ = clamp_rto(
      static_cast<std::uint64_t>(srtt_us_ + 4.0 * rttvar_us_), options_);
}

void RtoEstimator::on_timeout() noexcept {
  rto_us_ = clamp_rto(
      rto_us_ > options_.max_us / 2 ? options_.max_us : rto_us_ * 2,
      options_);
}

}  // namespace cs::netio
