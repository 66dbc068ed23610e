// Pipeline profiler: runs every stage of the study pipeline on the
// default universe and prints where the time and the work went — the
// span tree, the per-stage summary table, the process resource bill
// (CPU, peak RSS), and the DNS/pcap work counters.
//
//   ./examples/pipeline_profile [domain_count]
//
// domain_count defaults to CS_DOMAINS, then 1500. A malformed or zero
// count, a flag, or a second argument prints the usage line and exits 2.
//
// Set CS_TRACE=out.json to additionally write the Chrome trace-event file
// (open it in chrome://tracing or https://ui.perfetto.dev — the RSS and
// queue-depth counter lanes sampled at stage boundaries render there
// too), and CS_BENCH_JSON=out.json to write the full obs::RunReport
// sidecar, the same shape the bench binaries feed into csbench.
#include <iostream>
#include <string>
#include <string_view>

#include "core/study.h"
#include "exec/config.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/format.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cs;

  // Collect spans even when CS_TRACE is unset — the report below needs them.
  obs::Tracer::instance().enable_collection();

  core::StudyConfig config;
  config.world.domain_count = 1500;
  if (argc > 1) {
    const std::string_view arg = argv[1];
    const auto domains = util::parse_env_unsigned(arg);
    if (argc > 2 || arg.starts_with('-') || !domains || *domains == 0) {
      std::cerr << "usage: pipeline_profile [domain_count]\n";
      return 2;
    }
    config.world.domain_count = *domains;
  } else if (const auto env = util::env_text(util::Knob::kDomains)) {
    const auto domains = util::parse_env_unsigned(*env);
    if (domains && *domains > 0)
      config.world.domain_count = *domains;
    else
      std::cerr << util::env_malformed(util::Knob::kDomains, *env,
                                       "a positive integer")
                << "\n";
  }

  std::cout << util::fmt("Profiling the full pipeline over {} domains...\n\n",
                         config.world.domain_count);

  core::Study study{config};
  // Touch every stage in pipeline order; Study caches each result.
  study.ranges();
  study.rank_map();
  study.dataset();
  study.cloud_usage();
  study.patterns();
  study.regions();
  study.capture_logs();
  study.capture();
  study.zone_study();
  study.campaign();
  study.isp_study();

  // ---- span tree (events are recorded in open order = pre-order).
  // Repeated same-name siblings (one dns.enumerate per domain) collapse
  // into one line with a count.
  const auto events = obs::Tracer::instance().events();
  std::cout << "Span tree:\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    std::uint64_t total_us = event.dur_us;
    std::size_t repeats = 1;
    while (i + 1 < events.size() &&
           events[i + 1].name == event.name &&
           events[i + 1].parent == event.parent) {
      total_us += events[++i].dur_us;
      ++repeats;
    }
    std::cout << util::fmt("{}{}{}  {:.1f} ms\n",
                           std::string(2 * event.depth, ' '), event.name,
                           repeats > 1 ? util::fmt(" x{}", repeats) : "",
                           total_us / 1000.0);
  }

  std::cout << "\n" << obs::Tracer::instance().render_summary() << "\n";

  // ---- the unified run report -------------------------------------------
  // One capture covers everything below: resource bill, percentiles, and
  // the counter table all read the same consistent snapshot.
  auto report = obs::RunReport::capture("pipeline_profile");
  report.threads = exec::thread_count();

  const auto& usage = report.resources;
  std::cout << util::fmt(
      "Resources: {:.0f} ms user + {:.0f} ms system CPU, peak RSS {:.1f} "
      "MiB ({} threads)\n",
      usage.user_cpu_us / 1000.0, usage.system_cpu_us / 1000.0,
      usage.peak_rss_kb / 1024.0, report.threads);
  for (const auto& h : report.metrics.histograms)
    if (h.count > 0)
      std::cout << util::fmt("{}: p50 {:.1f} / p90 {:.1f} / p99 {:.1f} "
                             "({} samples)\n",
                             h.name, h.quantile(0.50), h.quantile(0.90),
                             h.quantile(0.99), h.count);
  std::cout << "\n";

  if (const auto sidecar = util::env_text("CS_BENCH_JSON"))
    if (report.write(*sidecar))
      std::cout << util::fmt("Wrote run report to {}\n\n", *sidecar);

  // ---- work counters ----------------------------------------------------
  const auto& snapshot = report.metrics;
  util::Table counters{{"counter", "value"}};
  counters.caption("Pipeline work counters");
  for (const auto& c : snapshot.counters) counters.add(c.name, c.value);
  std::cout << counters.render() << "\n";

  const auto queries = snapshot.counter("dns.server.queries");
  const auto nxdomain = snapshot.counter("dns.server.nxdomain");
  if (queries > 0)
    std::cout << util::fmt(
        "DNS: {} authoritative queries served, {:.1f}% NXDOMAIN, "
        "{} AXFR granted / {} refused.\n",
        queries, 100.0 * nxdomain / queries,
        snapshot.counter("dns.server.axfr_granted"),
        snapshot.counter("dns.server.axfr_refused"));
  std::cout << util::fmt(
      "pcap: {} packets decoded ({} bytes), {} truncated, {} flows "
      "assembled.\n",
      snapshot.counter("pcap.decode.packets"),
      snapshot.counter("pcap.decode.bytes"),
      snapshot.counter("pcap.decode.truncated"),
      snapshot.counter("pcap.flow.flows"));
  return 0;
}
