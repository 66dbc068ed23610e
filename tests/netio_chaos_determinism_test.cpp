// The chaos layer's headline promise, split by survivability.
//
// Survivable profiles (loss/dup/reorder/delay, no corruption): the drop
// clamp guarantees every exchange still completes with unchanged answer
// bytes, so a study's dataset artifact is byte-identical chaos-on vs
// chaos-off at any CS_THREADS — the retransmit schedule absorbs the
// pressure without ever reaching a terminal state. Checked against the
// sim artifact (which the socket determinism test already pins equal to
// the chaos-off socket artifact), two seeds x CS_THREADS {1, 8}.
//
// Unsurvivable profiles (corrupt > 0): the run must degrade gracefully —
// complete without hangs, with every exchange settled by exactly one
// cause. Exercised at two seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/study.h"
#include "exec/config.h"
#include "netio/loopback.h"
#include "obs/metrics.h"
#include "analysis/snapshot.h"
#include "snap/codec.h"

namespace cs::core {
namespace {

StudyConfig small_config(std::uint64_t seed, netio::TransportMode mode) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 60;
  config.dataset.wordlist = {"www", "mail", "api", "cdn", "dev", "static"};
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = true;
  config.transport = mode;
  return config;
}

/// Loss, duplication, reordering, and sub-RTO delay — everything the
/// clamp makes survivable — at rates high enough to exercise every
/// impairment across a 60-domain study.
netio::LoopbackDns::Options survivable_chaos() {
  netio::LoopbackDns::Options options;
  // The adaptive band [5ms, 2s] brackets this.
  options.client.rto_us = 20'000;
  options.chaos.drop = 0.06;
  options.chaos.dup = 0.05;
  options.chaos.reorder = 0.08;
  options.chaos.delay_us = 300;
  options.chaos.jitter_us = 200;
  return options;
}

std::vector<std::uint8_t> dataset_bytes(StudyConfig config,
                                        unsigned threads) {
  exec::ScopedThreads guard{threads};
  Study study{std::move(config)};
  snap::Writer writer;
  snap::encode_artifact(writer, study.dataset());
  const auto bytes = writer.bytes();
  return {bytes.begin(), bytes.end()};
}

class ChaosDeterminism : public testing::TestWithParam<unsigned> {};

TEST_P(ChaosDeterminism, SurvivableProfileKeepsArtifactByteIdentical) {
  const unsigned threads = GetParam();
  for (const std::uint64_t seed : {2013ull, 5077ull}) {
    const auto clean = dataset_bytes(
        small_config(seed, netio::TransportMode::kSim), threads);
    ASSERT_FALSE(clean.empty());

    const auto before = obs::MetricsRegistry::instance().snapshot();
    auto config = small_config(seed, netio::TransportMode::kSocket);
    config.netio = survivable_chaos();
    const auto chaotic = dataset_bytes(std::move(config), threads);
    const auto after = obs::MetricsRegistry::instance().snapshot();

    EXPECT_EQ(clean, chaotic)
        << "survivable chaos changed the artifact at seed " << seed
        << ", CS_THREADS=" << threads;

    // The wire really was hostile...
    const auto impairments = [&](const char* name) {
      return after.counter(name) - before.counter(name);
    };
    EXPECT_GT(impairments("netio.chaos.drops") +
                  impairments("netio.chaos.dups") +
                  impairments("netio.chaos.reorders") +
                  impairments("netio.chaos.delays"),
              0u)
        << "profile injected nothing; the identity proves nothing";
    // ...yet no exchange ever reached a terminal resilience state: the
    // clamp turns every impairment into pressure, never failure.
    EXPECT_EQ(impairments("netio.client.expirations"), 0u);
    EXPECT_EQ(impairments("netio.client.hang_guard_trips"), 0u);
    EXPECT_EQ(impairments("netio.chaos.corrupts"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ChaosDeterminism, testing::Values(1u, 8u));

// --- unsurvivable profiles: graceful degradation --------------------------

StudyConfig tiny_config(std::uint64_t seed) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 25;
  config.dataset.wordlist = {"www", "mail", "api", "cdn"};
  config.dataset.lookup_vantages = 1;
  config.dataset.collect_name_servers = true;
  config.transport = netio::TransportMode::kSocket;
  return config;
}

/// corrupt=1 flips one bit in every datagram, both directions: answers
/// die in flight (bad frame, bad mux ID, undecodable DNS bytes), and the
/// retransmit schedule must carry the run to completion.
netio::LoopbackDns::Options corrupting_chaos() {
  netio::LoopbackDns::Options options;
  options.client.rto_us = 5'000;
  options.client.max_rto_us = 20'000;  // keeps the backoff test-sized
  options.chaos.corrupt = 1.0;
  return options;
}

class ChaosDegradation : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosDegradation, CorruptingWireCompletesWithExactAccounting) {
  auto config = tiny_config(GetParam());
  config.netio = corrupting_chaos();

  const auto before = obs::MetricsRegistry::instance().snapshot();
  const auto bytes = dataset_bytes(std::move(config), 8);
  const auto after = obs::MetricsRegistry::instance().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };

  EXPECT_FALSE(bytes.empty()) << "degraded run still produces an artifact";
  // Every exchange settles by exactly one cause; the sum of causes is
  // the number of exchanges started. This is the exact-accounting
  // invariant render_data_quality reports against.
  EXPECT_EQ(delta("netio.client.exchanges"),
            delta("netio.client.responses") +
                delta("netio.client.unreachable") +
                delta("netio.client.expirations") +
                delta("netio.client.hang_guard_trips"));
  EXPECT_GT(delta("netio.chaos.corrupts"), 0u);
  EXPECT_GT(delta("netio.client.expirations"), 0u);
  EXPECT_EQ(delta("netio.client.hang_guard_trips"), 0u) << "run hung";
}

// Named by world seed, so each run reports under its own case name.
INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosDegradation, testing::Values(911u, 912u),
    [](const testing::TestParamInfo<std::uint64_t>& info) {
      return std::to_string(info.param);
    });

}  // namespace
}  // namespace cs::core
