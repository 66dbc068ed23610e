// census: DatasetBuilder::build over the whole universe — AXFR attempts,
// wordlist brute force and per-vantage lookups of every name found.

#include <optional>
#include <set>

#include "analysis/dataset.h"
#include "dns/wordlist.h"
#include "synth/world.h"
#include "tracing_transport.h"
#include "workload.h"

namespace perfbench {
namespace {

using cs::analysis::AlexaDataset;
using cs::analysis::DatasetBuilder;
using cs::synth::World;

class Census final : public Workload {
 public:
  void setup(std::uint64_t seed, const std::string& /*scratch_dir*/,
             Layers& layers) override {
    world_.reset();
    const double start = wall_s();
    world_ = std::make_unique<World>(
        cs::synth::WorldConfig{.seed = seed, .domain_count = kDomains});
    layers["synth.world.build_ms"] = (wall_s() - start) * 1e3;
    expected_.reset();
  }

  Pass run(bool traced, Checker& checker) override {
    Pass pass;
    std::optional<TracingTransport> tracer;
    if (traced) {
      tracer.emplace(world_->network());
      world_->set_transport_override(&*tracer);
    }
    const Stopwatch watch;
    DatasetBuilder::Options options;
    options.lookup_vantages = kLookupVantages;
    const AlexaDataset dataset = DatasetBuilder{*world_, options}.build();
    watch.stop(pass);
    world_->set_transport_override(nullptr);

    const auto domains = static_cast<double>(dataset.domains.size());
    pass.units = domains;
    double candidates = 0;
    double hits = 0;
    for (const auto& domain : dataset.domains) {
      pass.attempted += domain.subdomains_probed;
      pass.failed += domain.unresolved_subdomains;
      if (!domain.axfr_succeeded) {
        candidates += static_cast<double>(cs::dns::default_wordlist().size());
        hits += static_cast<double>(domain.subdomains_probed);
      }
    }
    if (traced) {
      pass.layers = dns_layers(tracer->take(), pass.cpu_s, domains);
      pass.layers["analysis.dataset.build_ms"] = pass.wall_s * 1e3;
      pass.layers["dns.enumerate.hit_ratio"] = ratio(hits, candidates);
    }
    check(dataset, checker);
    return pass;
  }

  const char* throughput_name() const override { return "domains_per_s"; }
  const char* throughput_unit() const override { return "domain/s"; }

 private:
  /// Every discoverable on-cloud subdomain of the truth is found, and
  /// every reported subdomain is an on-cloud subdomain of the truth.
  void check(const AlexaDataset& dataset, Checker& checker) {
    if (dataset.domains.size() != world_->domains().size())
      checker.fail("census: " + std::to_string(dataset.domains.size()) +
                   " domains probed of " +
                   std::to_string(world_->domains().size()));
    if (!expected_) {
      expected_.emplace();
      for (const auto& domain : world_->domains())
        for (const auto& sub : domain.subdomains)
          if (sub.on_cloud && sub.discoverable) expected_->insert(sub.name);
    }
    std::set<cs::dns::Name> found;
    for (const auto& obs : dataset.cloud_subdomains) {
      found.insert(obs.name);
      const auto* truth = world_->subdomain_truth(obs.name);
      if (!truth || !truth->on_cloud)
        checker.fail("census: reported " + obs.name.to_string() +
                     ", which is not an on-cloud subdomain");
    }
    for (const auto& name : *expected_)
      if (!found.contains(name))
        checker.fail("census: missed " + name.to_string());
  }

  std::unique_ptr<World> world_;
  std::optional<std::set<cs::dns::Name>> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_census() { return std::make_unique<Census>(); }

}  // namespace perfbench
