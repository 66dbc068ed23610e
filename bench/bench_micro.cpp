// Micro-benchmarks (google-benchmark) for the hot substrate paths the
// study pipeline leans on: DNS wire codec, iterative resolution, prefix
// matching, packet decode, flow assembly, HTTP/TLS parsing, and the
// fork-join region overhead.
#include <benchmark/benchmark.h>

#include "analysis/ranges.h"
#include "dns/message.h"
#include "dns/resolver.h"
#include "exec/config.h"
#include "exec/parallel.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pcap/decode.h"
#include "pcap/flow.h"
#include "proto/http.h"
#include "proto/tls.h"
#include "synth/world.h"

namespace {

using namespace cs;

dns::Message sample_response() {
  auto query = dns::Message::query(
      1, dns::Name::must_parse("www.example.com"), dns::RrType::kA);
  auto resp = dns::Message::response_to(query, dns::Rcode::kNoError, true);
  resp.answers.push_back(dns::ResourceRecord::cname(
      dns::Name::must_parse("www.example.com"),
      dns::Name::must_parse("lb-1.us-east-1.elb.amazonaws.com")));
  for (int i = 0; i < 3; ++i)
    resp.answers.push_back(dns::ResourceRecord::a(
        dns::Name::must_parse("lb-1.us-east-1.elb.amazonaws.com"),
        net::Ipv4(54, 0, 0, i)));
  return resp;
}

void BM_DnsEncode(benchmark::State& state) {
  const auto message = sample_response();
  for (auto _ : state) benchmark::DoNotOptimize(message.encode());
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = sample_response().encode();
  for (auto _ : state) benchmark::DoNotOptimize(dns::Message::decode(wire));
}
BENCHMARK(BM_DnsDecode);

void BM_PrefixLookup(benchmark::State& state) {
  auto ec2 = cloud::Provider::make_ec2(1);
  auto azure = cloud::Provider::make_azure(1);
  analysis::CloudRanges ranges{ec2, azure};
  std::uint32_t ip = 0x36000000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ranges.classify(net::Ipv4{ip}));
    ip += 77777;
  }
}
BENCHMARK(BM_PrefixLookup);

void BM_FrameDecode(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(1200, 0x5A);
  const auto packet = pcap::make_tcp_packet(
      1.0, {net::Ipv4(10, 0, 0, 1), 50000}, {net::Ipv4(54, 0, 0, 1), 443},
      {.ack = true, .psh = true}, 7, payload);
  for (auto _ : state)
    benchmark::DoNotOptimize(pcap::decode_frame(packet.bytes()));
}
BENCHMARK(BM_FrameDecode);

void BM_FlowAssembly(benchmark::State& state) {
  std::vector<pcap::Packet> packets;
  for (int i = 0; i < 64; ++i) {
    packets.push_back(pcap::make_tcp_packet(
        i * 0.01, {net::Ipv4(10, 0, 0, 1), static_cast<std::uint16_t>(
                                               40000 + i % 8)},
        {net::Ipv4(54, 0, 0, 1), 80}, {.ack = true}, i,
        std::vector<std::uint8_t>(256, 'x')));
  }
  for (auto _ : state) {
    pcap::FlowTable table;
    for (const auto& packet : packets) table.add(packet);
    benchmark::DoNotOptimize(table.finish());
  }
}
BENCHMARK(BM_FlowAssembly);

void BM_HttpParse(benchmark::State& state) {
  const auto request = proto::build_request("GET", "www.dropbox.com", "/f");
  for (auto _ : state) {
    std::size_t offset = 0;
    benchmark::DoNotOptimize(proto::parse_request(request, offset));
  }
}
BENCHMARK(BM_HttpParse);

void BM_TlsSniExtract(benchmark::State& state) {
  const auto hello = proto::build_client_hello("client1.dropbox.com");
  for (auto _ : state) benchmark::DoNotOptimize(proto::extract_sni(hello));
}
BENCHMARK(BM_TlsSniExtract);

void BM_IterativeResolution(benchmark::State& state) {
  synth::WorldConfig config;
  config.domain_count = 200;
  synth::World world{config};
  auto resolver = world.make_resolver(net::Ipv4(199, 16, 0, 10));
  const auto name = dns::Name::must_parse("www.pinterest.com");
  for (auto _ : state) {
    resolver.flush_cache();
    benchmark::DoNotOptimize(resolver.resolve(name, dns::RrType::kA));
  }
}
BENCHMARK(BM_IterativeResolution);

// The injector's contract when CS_FAULT is unset: one relaxed load and a
// branch. Compare against BM_IterativeResolution to confirm the guarded
// exchange path costs the same with the injector compiled in.
void BM_FaultCheckDisabled(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(fault::active_plan());
}
BENCHMARK(BM_FaultCheckDisabled);

void BM_FaultDecideEnabled(benchmark::State& state) {
  fault::Spec spec;
  spec.loss = 0.02;
  const fault::Plan plan{spec};
  std::uint64_t key = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(plan.decide(fault::Kind::kLoss, key++));
}
BENCHMARK(BM_FaultDecideEnabled);

// Guard number for the metrics-overhead contract: resolver tallies are
// plain members flushed as one delta at destruction, so iterative
// resolution under CS_METRICS=1 (arg 1) must time the same as with
// detailed metrics off (arg 0). A gap opening up here means a per-query
// shared atomic crept back into the enumeration hot path.
void BM_MetricsOverhead(benchmark::State& state) {
  const bool was_on = obs::detailed_metrics();
  obs::set_detailed_metrics(state.range(0) != 0);
  synth::WorldConfig config;
  config.domain_count = 200;
  synth::World world{config};
  auto resolver = world.make_resolver(net::Ipv4(199, 16, 0, 10));
  const auto name = dns::Name::must_parse("www.pinterest.com");
  for (auto _ : state) {
    resolver.flush_cache();
    benchmark::DoNotOptimize(resolver.resolve(name, dns::RrType::kA));
  }
  obs::set_detailed_metrics(was_on);
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

// Price of the caller-wait bookkeeping every fanned-out region pays
// (exec.region.caller_wait_us): one clock pair plus one counter add. Read
// it against BM_ParallelRegion, the cost of the smallest fanned-out region
// at 2 threads, to get its share of a region.
void BM_CallerWaitBookkeeping(benchmark::State& state) {
  auto& caller_wait = obs::counter("exec.region.caller_wait_us");
  for (auto _ : state) {
    const auto started_us = obs::steady_now_us();
    caller_wait.inc(obs::steady_now_us() - started_us);
  }
}
BENCHMARK(BM_CallerWaitBookkeeping);

void BM_ParallelRegion(benchmark::State& state) {
  exec::ScopedThreads threads{2};
  for (auto _ : state)
    exec::parallel_for(
        4, [](std::size_t i) { benchmark::DoNotOptimize(i); }, /*grain=*/1);
}
BENCHMARK(BM_ParallelRegion);

void BM_WorldBuild(benchmark::State& state) {
  for (auto _ : state) {
    synth::WorldConfig config;
    config.domain_count = static_cast<std::size_t>(state.range(0));
    synth::World world{config};
    benchmark::DoNotOptimize(world.domains().size());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(100)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
