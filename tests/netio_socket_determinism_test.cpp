// The live-socket backend's headline promise: a study's dataset artifact
// is byte-identical whether resolver traffic rode the in-process
// simulated network or real localhost UDP sockets. Answer content is a
// pure function of the world seed; the transport only changes timing.
// Exercised at CS_THREADS 1 and 8 so the socket path also holds under
// the exec pool's fan-out (and under TSan in CI), and under a CS_FAULT
// plan, whose seeded verdicts the socket server replays on every attempt.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/study.h"
#include "exec/config.h"
#include "fault/fault.h"
#include "netio/loopback.h"
#include "analysis/snapshot.h"
#include "snap/codec.h"

namespace cs::core {
namespace {

StudyConfig small_config(std::uint64_t seed, netio::TransportMode mode) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 60;
  // A compact wordlist keeps the brute-force phase small enough for the
  // sanitizer jobs while still fanning out real query load.
  config.dataset.wordlist = {"www", "mail", "api", "cdn", "dev", "static"};
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = true;
  config.transport = mode;
  return config;
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

class SocketDeterminism : public testing::TestWithParam<unsigned> {};

TEST_P(SocketDeterminism, DatasetArtifactMatchesSimByteForByte) {
  const unsigned threads = GetParam();
  const std::uint64_t seed = 2013;
  const auto sim =
      dataset_bytes(small_config(seed, netio::TransportMode::kSim), threads);
  const auto socket = dataset_bytes(
      small_config(seed, netio::TransportMode::kSocket), threads);
  ASSERT_FALSE(sim.empty());
  EXPECT_EQ(sim, socket)
      << "socket transport altered the dataset artifact at CS_THREADS="
      << threads;
}

INSTANTIATE_TEST_SUITE_P(Threads, SocketDeterminism,
                         testing::Values(1u, 8u));

TEST(SocketDeterminism, SocketRunsAreReproducible) {
  // Same seed, same artifact, run to run — over real sockets.
  const auto first =
      dataset_bytes(small_config(777, netio::TransportMode::kSocket), 4);
  const auto second =
      dataset_bytes(small_config(777, netio::TransportMode::kSocket), 4);
  EXPECT_EQ(first, second);
}

TEST(SocketDeterminism, FaultPlanGivesTheSimArtifact) {
  // Injected loss, timeouts, SERVFAILs and truncation are decided per
  // exchange by the plan's seed, identically by the sim network and the
  // socket server; the socket client must turn each into the same
  // resolver-visible outcome, however its retransmit timers happen to run.
  fault::ScopedPlan plan{
      "loss=0.03,timeout=0.02,servfail=0.02,truncate=0.02,seed=7"};
  for (const std::uint64_t seed : {2013ull, 5077ull}) {
    auto config = small_config(seed, netio::TransportMode::kSim);
    config.world.domain_count = 25;
    config.dataset.wordlist = {"www", "mail", "api", "cdn"};
    config.dataset.lookup_vantages = 1;
    const auto sim = dataset_bytes(config, 8);

    config.transport = netio::TransportMode::kSocket;
    config.netio.emplace();
    config.netio->client.rto_us = 5'000;
    config.netio->client.max_rto_us = 20'000;
    const auto socket = dataset_bytes(std::move(config), 8);
    ASSERT_FALSE(sim.empty());
    EXPECT_EQ(sim, socket)
        << "the fault plan gave a different socket artifact at seed "
        << seed;
  }
}

}  // namespace
}  // namespace cs::core
