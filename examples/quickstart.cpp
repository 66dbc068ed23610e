// Quickstart: build a small synthetic universe, run the paper's
// measurement pipeline over it, and print the headline numbers.
//
//   ./examples/quickstart [domain_count]
//
// domain_count defaults to 800. A malformed or zero count, a flag, or a
// second argument prints the usage line and exits 2.
//
// This is the five-minute tour of the public API: World (the simulated
// internet), Study (the cached pipeline), and the report renderers.
#include <iostream>
#include <string_view>

#include "core/report.h"
#include "core/study.h"
#include "util/env.h"
#include "util/format.h"

int main(int argc, char** argv) {
  using namespace cs;

  core::StudyConfig config;
  config.world.domain_count = 800;
  if (argc > 1) {
    const std::string_view arg = argv[1];
    const auto domains = util::parse_env_unsigned(arg);
    if (argc > 2 || arg.starts_with('-') || !domains || *domains == 0) {
      std::cerr << "usage: quickstart [domain_count]\n";
      return 2;
    }
    config.world.domain_count = *domains;
  }
  config.traffic.total_web_bytes = 16ull * 1024 * 1024;

  std::cout << "Building a universe of " << config.world.domain_count
            << " ranked domains...\n";
  core::Study study{config};

  // Who uses the cloud? (§3.2)
  const auto& usage = study.cloud_usage();
  std::cout << util::fmt(
      "\n{} of {} domains ({:.1f}%) have a cloud-using subdomain.\n",
      usage.domains.total, config.world.domain_count,
      100.0 * usage.domains.total / config.world.domain_count);
  std::cout << core::render_table3(usage) << "\n";

  // How do they deploy? (§4)
  const auto& patterns = study.patterns();
  std::cout << core::render_table7(patterns) << "\n";

  // Where do they deploy? (§4.2)
  const auto& regions = study.regions();
  std::cout << util::fmt(
      "Single-region subdomains: EC2 {:.1f}%, Azure {:.1f}% — the paper's "
      "central fragility finding.\n\n",
      100.0 * regions.ec2_single_region_fraction,
      100.0 * regions.azure_single_region_fraction);

  // What would multi-region buy them? (§5.1)
  const auto k_results = analysis::optimal_k_regions(study.campaign());
  std::cout << core::render_fig12(k_results);
  if (k_results.size() >= 3)
    std::cout << util::fmt(
        "\nGoing from 1 to 3 regions cuts average client latency by "
        "{:.0f}%.\n",
        100.0 * (1.0 - k_results[2].avg_rtt_ms / k_results[0].avg_rtt_ms));
  return 0;
}
