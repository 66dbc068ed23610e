// The socket client's clock-free pieces, exercised as pure units: RFC
// 6298 RTO estimation (including Karn's rule and backoff) and the chaos
// profile/link — every test deterministic and sleep-free (time is a
// scripted microsecond value).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netio/chaos.h"
#include "netio/resilience.h"

namespace cs::netio {
namespace {

// --- RtoEstimator (RFC 6298) ----------------------------------------------

RtoEstimator::Options wide_band() {
  RtoEstimator::Options options;
  options.initial_us = 100'000;
  options.min_us = 5'000;
  options.max_us = 2'000'000;
  return options;
}

TEST(RtoEstimator, FirstSampleSeedsSrttAndRttvar) {
  RtoEstimator est{wide_band()};
  EXPECT_FALSE(est.seeded());
  EXPECT_EQ(est.rto_us(), 100'000u);
  est.observe_rtt(40'000);
  EXPECT_TRUE(est.seeded());
  // SRTT <- R, RTTVAR <- R/2, RTO <- SRTT + 4*RTTVAR (§2.2).
  EXPECT_DOUBLE_EQ(est.srtt_us(), 40'000.0);
  EXPECT_DOUBLE_EQ(est.rttvar_us(), 20'000.0);
  EXPECT_EQ(est.rto_us(), 120'000u);
}

TEST(RtoEstimator, SubsequentSamplesUseStandardGains) {
  RtoEstimator est{wide_band()};
  est.observe_rtt(40'000);
  est.observe_rtt(80'000);
  // Variance first, from the pre-update SRTT (§2.3):
  //   RTTVAR = 0.75*20000 + 0.25*|40000-80000| = 25000
  //   SRTT   = 0.875*40000 + 0.125*80000       = 45000
  EXPECT_DOUBLE_EQ(est.rttvar_us(), 25'000.0);
  EXPECT_DOUBLE_EQ(est.srtt_us(), 45'000.0);
  EXPECT_EQ(est.rto_us(), 145'000u);
}

TEST(RtoEstimator, RtoClampsToConfiguredBand) {
  RtoEstimator est{wide_band()};
  // A steady stream of tiny identical samples drives RTTVAR toward zero;
  // the floor keeps the timer from becoming hair-triggered.
  for (int i = 0; i < 64; ++i) est.observe_rtt(100);
  EXPECT_EQ(est.rto_us(), 5'000u);
  RtoEstimator slow{wide_band()};
  slow.observe_rtt(5'000'000);  // one pathological sample
  EXPECT_EQ(slow.rto_us(), 2'000'000u);
}

TEST(RtoEstimator, TimeoutDoublesUpToCapWithoutOverflow) {
  RtoEstimator est{wide_band()};
  est.on_timeout();
  EXPECT_EQ(est.rto_us(), 200'000u);
  est.on_timeout();
  EXPECT_EQ(est.rto_us(), 400'000u);
  for (int i = 0; i < 80; ++i) est.on_timeout();  // far past the cap
  EXPECT_EQ(est.rto_us(), 2'000'000u);
}

TEST(RtoEstimator, CleanSampleClearsBackoff) {
  RtoEstimator est{wide_band()};
  est.observe_rtt(40'000);
  est.on_timeout();
  est.on_timeout();
  EXPECT_EQ(est.rto_us(), 480'000u);  // 120000 doubled twice
  // The next clean sample recomputes from SRTT/RTTVAR (§5.7): the
  // backed-off value is gone, not halved or remembered.
  est.observe_rtt(40'000);
  EXPECT_LT(est.rto_us(), 130'000u);
}

TEST(RtoEstimator, KarnExclusionKeepsAmbiguousSamplesOut) {
  // Karn's rule lives in the transport: an exchange that was ever
  // retransmitted yields no sample, because the client cannot tell which
  // transmission the response answered. This pins why: feeding the
  // ambiguous (first-send-to-late-response) measurement would poison the
  // estimator upward, while exclusion leaves it exactly where clean
  // samples put it.
  RtoEstimator excluded{wide_band()};
  RtoEstimator poisoned{wide_band()};
  for (const auto rtt : {20'000u, 22'000u, 21'000u}) {
    excluded.observe_rtt(rtt);
    poisoned.observe_rtt(rtt);
  }
  const auto clean_rto = excluded.rto_us();
  // A retransmitted exchange: the response arrives one full backed-off
  // RTO after the *first* send. The transport feeds neither estimator's
  // on_timeout here — only the sample policy differs.
  poisoned.observe_rtt(clean_rto + 200'000);
  EXPECT_EQ(excluded.rto_us(), clean_rto);
  EXPECT_GT(poisoned.rto_us(), clean_rto);
}

// --- ChaosProfile parsing -------------------------------------------------

TEST(ChaosProfile, ParsesFullSpec) {
  const auto profile = ChaosProfile::parse(
      "drop=0.05,dup=0.02,reorder=0.1,delay_us=300,jitter_us=150,"
      "corrupt=0.01,seed=42");
  ASSERT_TRUE(profile.has_value());
  EXPECT_DOUBLE_EQ(profile->drop, 0.05);
  EXPECT_DOUBLE_EQ(profile->dup, 0.02);
  EXPECT_DOUBLE_EQ(profile->reorder, 0.1);
  EXPECT_DOUBLE_EQ(profile->corrupt, 0.01);
  EXPECT_EQ(profile->delay_us, 300u);
  EXPECT_EQ(profile->jitter_us, 150u);
  EXPECT_EQ(profile->seed, 42u);
  EXPECT_TRUE(profile->any());
  EXPECT_FALSE(profile->survivable());  // corrupt > 0
}

TEST(ChaosProfile, SurvivabilityTracksCorruptOnly) {
  const auto lossy = ChaosProfile::parse("drop=1,dup=1,delay_us=5000");
  ASSERT_TRUE(lossy.has_value());
  EXPECT_TRUE(lossy->survivable());
  const auto corrupting = ChaosProfile::parse("corrupt=0.001");
  ASSERT_TRUE(corrupting.has_value());
  EXPECT_FALSE(corrupting->survivable());
}

TEST(ChaosProfile, RejectsMalformedSpecsWholesale) {
  // The same strictness as CS_FAULT: a half-read profile would silently
  // change what a chaos CI run proves.
  EXPECT_FALSE(ChaosProfile::parse("").has_value());
  EXPECT_FALSE(ChaosProfile::parse("drop").has_value());
  EXPECT_FALSE(ChaosProfile::parse("drop=").has_value());
  EXPECT_FALSE(ChaosProfile::parse("drop=0.1,").has_value());   // trailing
  EXPECT_FALSE(ChaosProfile::parse("drop=1.5").has_value());    // range
  EXPECT_FALSE(ChaosProfile::parse("drop=-0.1").has_value());
  EXPECT_FALSE(ChaosProfile::parse("drop=nan").has_value());
  EXPECT_FALSE(ChaosProfile::parse("drop=0.1,drop=0.2").has_value());
  EXPECT_FALSE(ChaosProfile::parse("loss=0.1").has_value());    // unknown
  EXPECT_FALSE(ChaosProfile::parse("delay_us=abc").has_value());
  EXPECT_FALSE(ChaosProfile::parse("delay_us=-1").has_value());
  EXPECT_FALSE(ChaosProfile::parse("drop=0.1 ,dup=0.2").has_value());
}

// --- ChaosLink ------------------------------------------------------------

TEST(ChaosLink, DecisionsAreAPureFunctionOfTheKeyTimeline) {
  // Two links with the same profile must produce identical verdict
  // sequences for the same (direction, key, attempt) timeline, whatever
  // else they decided in between — determinism at any CS_THREADS hangs
  // off this.
  ChaosProfile profile;
  profile.drop = 0.3;
  profile.dup = 0.3;
  profile.reorder = 0.3;
  profile.delay_us = 100;
  profile.jitter_us = 400;
  profile.seed = 7;
  ChaosLink a{profile, 3};
  ChaosLink b{profile, 3};
  // b also decides for unrelated keys first; a's timeline must not care.
  for (std::uint64_t noise = 900; noise < 940; ++noise)
    b.decide(ChaosDirection::kClientToServer, noise, 64);
  for (std::uint64_t key = 1; key <= 32; ++key) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (const auto dir : {ChaosDirection::kClientToServer,
                             ChaosDirection::kServerToClient}) {
        const auto va = a.decide(dir, key, 64);
        const auto vb = b.decide(dir, key, 64);
        EXPECT_EQ(va.deliver, vb.deliver);
        EXPECT_EQ(va.duplicate, vb.duplicate);
        EXPECT_EQ(va.delay_us, vb.delay_us);
        EXPECT_EQ(va.duplicate_delay_us, vb.duplicate_delay_us);
        EXPECT_EQ(va.corrupt_offset, vb.corrupt_offset);
        EXPECT_EQ(va.corrupt_mask, vb.corrupt_mask);
      }
    }
  }
}

TEST(ChaosLink, SeedChangesTheDecisionStream) {
  ChaosProfile base;
  base.drop = 0.5;
  ChaosProfile reseeded = base;
  reseeded.seed = base.seed ^ 0xFFFF;
  ChaosLink a{base, 8};
  ChaosLink b{reseeded, 8};
  int disagreements = 0;
  for (std::uint64_t key = 1; key <= 64; ++key)
    if (a.decide(ChaosDirection::kClientToServer, key, 64).deliver !=
        b.decide(ChaosDirection::kClientToServer, key, 64).deliver)
      ++disagreements;
  EXPECT_GT(disagreements, 0);
}

TEST(ChaosLink, DropBudgetClampsAtMaxAttemptsMinusOne) {
  // drop=1 wants to kill everything; the budget lets exactly
  // max_attempts-1 datagrams per key vanish (both directions pooled),
  // then force-delivers — so the final round always completes.
  ChaosProfile profile;
  profile.drop = 1.0;
  const unsigned max_attempts = 4;
  ChaosLink link{profile, max_attempts};
  for (std::uint64_t key = 50; key < 58; ++key) {
    unsigned dropped = 0;
    unsigned delivered = 0;
    for (int round = 0; round < 6; ++round) {
      if (link.decide(ChaosDirection::kClientToServer, key, 64).deliver)
        ++delivered;
      else
        ++dropped;
      if (link.decide(ChaosDirection::kServerToClient, key, 64).deliver)
        ++delivered;
      else
        ++dropped;
    }
    EXPECT_EQ(dropped, max_attempts - 1) << "key " << key;
    EXPECT_EQ(delivered, 12 - (max_attempts - 1)) << "key " << key;
  }
}

TEST(ChaosLink, CorruptionPicksOneInBoundsBit) {
  ChaosProfile profile;
  profile.corrupt = 1.0;
  ChaosLink link{profile, 3};
  for (std::uint64_t key = 1; key <= 64; ++key) {
    const auto verdict =
        link.decide(ChaosDirection::kClientToServer, key, 17);
    EXPECT_TRUE(verdict.deliver);
    ASSERT_NE(verdict.corrupt_mask, 0);
    // Exactly one bit, and an offset inside the frame.
    EXPECT_EQ(verdict.corrupt_mask & (verdict.corrupt_mask - 1), 0);
    EXPECT_LT(verdict.corrupt_offset, 17u);
  }
  // A zero-length frame cannot be corrupted, only delivered.
  const auto empty = link.decide(ChaosDirection::kClientToServer, 999, 0);
  EXPECT_TRUE(empty.deliver);
  EXPECT_EQ(empty.corrupt_mask, 0);
}

TEST(ChaosLink, DelayStaysInsideTheConfiguredBand) {
  ChaosProfile profile;
  profile.delay_us = 300;
  profile.jitter_us = 150;
  profile.reorder = 1.0;
  ChaosLink link{profile, 3};
  const std::uint64_t holdback = 2 * (300 + 150) + 200;
  for (std::uint64_t key = 1; key <= 32; ++key) {
    const auto verdict =
        link.decide(ChaosDirection::kServerToClient, key, 64);
    EXPECT_GE(verdict.delay_us, 300u + holdback);
    EXPECT_LE(verdict.delay_us, 300u + 150u + holdback);
    EXPECT_LE(verdict.delay_us, link.max_latency_us());
  }
}

}  // namespace
}  // namespace cs::netio
