// perfbench: end-to-end and per-layer benchmark of the CloudScope study.
//
//   perfbench --workload census|lookups|capture --seed N --seconds S
//             --trace 0|1 [--scratch DIR]
//
// Sets the workload up from the seed several times, then runs closed-loop
// passes for S seconds. --trace 0 reports the end-to-end metrics of
// untraced passes; --trace 1 spends half the time on untraced passes and
// half on traced ones and reports the per-layer metrics. Prints a
// human-readable report, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 1 when an output check failed, 2 on bad arguments.

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "exec/config.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Exec pool width: half of the 4-core machine the bounds were set on.
constexpr unsigned kThreads = 2;
/// Threads that run pool work: the workers plus the calling thread, which
/// takes chunks too (exec/parallel.h).
constexpr unsigned kLanes = kThreads + 1;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json's end_to_end block.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_s", "s"},
    {"throughput_per_s", "1/s"},
};

/// Must match BENCHMARK.json's per_layer block. A layer the workload does
/// not cross reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"synth.world.build_ms", "ms/setup"},
    {"synth.traffic.generate_ms", "ms/setup"},
    {"analysis.dataset.build_ms", "ms/pass"},
    {"dns.exchange.count", "count/pass"},
    {"dns.exchange.per_unit", "count/unit"},
    {"dns.exchange.referral_share", "share"},
    {"dns.exchange.nxdomain_share", "share"},
    {"dns.enumerate.hit_ratio", "share"},
    {"dns.exchange.query_bytes", "B/pass"},
    {"dns.exchange.reply_bytes", "B/pass"},
    {"dns.server.busy_ms", "ms/pass"},
    {"dns.server.ns_per_exchange", "ns/exchange"},
    {"dns.client.busy_ms", "ms/pass"},
    {"dns.client.ns_per_exchange", "ns/exchange"},
    {"dns.resolve.cname_hops", "count/pass"},
    {"exec.parallel_efficiency", "share"},
    {"pcap.read.ns_per_frame", "ns/frame"},
    {"pcap.read.frames", "count/pass"},
    {"pcap.read.bytes", "B/pass"},
    {"pcap.flow.ns_per_frame", "ns/frame"},
    {"pcap.flow.flows", "count/pass"},
    {"pcap.flow.undecodable", "count/pass"},
    {"proto.analyze.ns_per_flow", "ns/flow"},
    {"proto.http.records", "count/pass"},
    {"proto.ssl.records", "count/pass"},
    {"analysis.capture.ms", "ms/pass"},
    {"bench.trace_overhead", "ratio"},
};

/// Per-pass counts and byte totals depend only on the inputs: every traced
/// pass of a run must read them identically.
bool exact_count(const MetricSpec& spec) {
  return std::string_view{spec.unit} == "count/pass" ||
         std::string_view{spec.unit} == "B/pass";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch = ".";
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload census|lookups|capture "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n";
  std::exit(2);
}

std::uint64_t parse_unsigned(std::string_view flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19)
    usage(std::string{flag} + " needs a whole number, got '" + text + "'");
  return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool seen_seed = false;
  bool seen_seconds = false;
  bool seen_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(std::string{flag} + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_unsigned(flag, value);
      seen_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_unsigned(flag, value));
      seen_seconds = args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
      seen_trace = true;
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      usage("unknown argument '" + std::string{flag} + "'");
    }
  }
  if (args.workload.empty() || !seen_seed || !seen_seconds || !seen_trace)
    usage("--workload, --seed, a positive --seconds and --trace are required");
  return args;
}

/// Runs passes until `seconds` have elapsed (at least one).
void run_passes(Workload& workload, bool traced, double seconds,
                Checker& checker, std::vector<Pass>& out) {
  const double start = wall_s();
  do {
    out.push_back(workload.run(traced, checker));
  } while (wall_s() - start < seconds);
}

std::vector<double> field(const std::vector<Pass>& passes,
                          double (*get)(const Pass&)) {
  std::vector<double> values;
  for (const auto& pass : passes) values.push_back(get(pass));
  return values;
}

double throughput(const Pass& pass) { return pass.units / pass.wall_s; }

/// Everything one run measured.
struct RunLog {
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layers;
  std::vector<Pass> plain;   ///< untraced passes
  std::vector<Pass> traced;  ///< traced passes (--trace 1 only)
  double rss_mb = 0.0;
};

using Metrics = std::vector<std::pair<MetricSpec, double>>;

Metrics end_to_end(const RunLog& log) {
  return {{kEndToEnd[0], median(log.setup_s)},
          {kEndToEnd[1], log.rss_mb},
          {kEndToEnd[2],
           median(field(log.plain, [](const Pass& p) { return p.cpu_s; }))},
          {kEndToEnd[3], median(field(log.plain, throughput))}};
}

/// Medians over the traced passes (set-up readings: over the set-ups).
/// Also fails the run when a work count differs between traced passes.
Metrics per_layer(const RunLog& log, Checker& checker) {
  auto readings = log.setup_layers;
  for (const auto& pass : log.traced)
    for (const auto& [name, value] : pass.layers) readings[name].push_back(value);
  for (const auto& spec : kPerLayer) {
    if (!exact_count(spec)) continue;
    const auto& values = readings[spec.name];
    for (const double value : values)
      if (value != values.front())
        checker.fail(std::string{"work count "} + spec.name +
                     " differs between passes of one run");
  }
  readings["exec.parallel_efficiency"] = field(
      log.plain, [](const Pass& p) { return p.cpu_s / (kLanes * p.wall_s); });
  const auto wall = [](const Pass& p) { return p.wall_s; };
  readings["bench.trace_overhead"] = {median(field(log.traced, wall)) /
                                      median(field(log.plain, wall))};
  Metrics metrics;
  for (const auto& spec : kPerLayer)
    metrics.emplace_back(spec, median(readings[spec.name]));
  return metrics;
}

/// The human-readable report, including the figures the JSON leaves out:
/// the workload's own throughput name, fail_share and lookup latency.
void print_report(const Args& args, const Workload& workload,
                  const RunLog& log, std::uint64_t attempted,
                  std::uint64_t failed, const Metrics& metrics) {
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " threads=" << kThreads << " setups=" << kSetups
            << " untraced_passes=" << log.plain.size()
            << " traced_passes=" << log.traced.size() << "\n";
  std::cout << "  " << workload.throughput_name() << " "
            << full_digits(median(field(log.plain, throughput))) << " "
            << workload.throughput_unit() << "\n";
  std::vector<double> latencies;
  for (const auto& pass : log.plain)
    latencies.insert(latencies.end(), pass.latencies_us.begin(),
                     pass.latencies_us.end());
  if (!latencies.empty())
    std::cout << "  lookup_p50_us " << full_digits(quantile(latencies, 0.50))
              << " us\n  lookup_p99_us "
              << full_digits(quantile(latencies, 0.99)) << " us (n="
              << latencies.size() << ")\n";
  std::cout << "  fail_share "
            << full_digits(ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)))
            << " (" << failed << " failed of " << attempted << " attempted)\n";
  for (const auto& [spec, value] : metrics)
    std::cout << "  " << spec.name << " " << full_digits(value) << " "
              << spec.unit << "\n";
}

std::string json_line(bool correct, std::uint64_t attempted,
                      std::uint64_t failed, const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, value] = metrics[i];
    json += (i ? ", \"" : "\"") + std::string{spec.name} +
            "\": {\"value\": " + full_digits(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
  }
  return json + "}}";
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload;
  if (args.workload == "census") workload = make_census();
  else if (args.workload == "lookups") workload = make_lookups();
  else if (args.workload == "capture") workload = make_capture();
  else usage("unknown workload '" + args.workload + "'");

  const cs::exec::ScopedThreads threads{kThreads};
  Checker checker;
  RunLog log;
  for (int i = 0; i < kSetups; ++i) {
    Layers layers;
    const double start = wall_s();
    workload->setup(args.seed, args.scratch, layers);
    log.setup_s.push_back(wall_s() - start);
    for (const auto& [name, value] : layers)
      log.setup_layers[name].push_back(value);
  }
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  run_passes(*workload, false, budget, checker, log.plain);
  if (args.trace) run_passes(*workload, true, budget, checker, log.traced);
  log.rss_mb = peak_rss_mb();
  workload->final_check(checker);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* passes : {&log.plain, &log.traced})
    for (const auto& pass : *passes) {
      attempted += pass.attempted;
      failed += pass.failed;
    }
  const Metrics metrics =
      args.trace ? per_layer(log, checker) : end_to_end(log);
  print_report(args, *workload, log, attempted, failed, metrics);
  std::cout << json_line(checker.ok(), attempted, failed, metrics)
            << std::endl;
  return checker.ok() ? 0 : 1;
}

}  // namespace

void Checker::fail(const std::string& what) {
  if (++failures_ <= 10) std::cerr << "perfbench: check failed: " << what << "\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
