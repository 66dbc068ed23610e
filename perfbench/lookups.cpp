// lookups: one caller thread resolving every discoverable ground-truth
// subdomain once from each of several PlanetLab vantages, with the
// resolver cache flushed between vantages as the paper did.

#include <algorithm>
#include <optional>

#include "dns/resolver.h"
#include "internet/vantage.h"
#include "synth/world.h"
#include "tracing_transport.h"
#include "workload.h"

namespace perfbench {
namespace {

using cs::synth::FrontEnd;
using cs::synth::SubdomainTruth;
using cs::synth::World;

std::vector<cs::net::Ipv4> sorted_unique(std::vector<cs::net::Ipv4> ips) {
  std::sort(ips.begin(), ips.end());
  ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
  return ips;
}

/// A front end whose name carries its own A records: the answer must be
/// exactly its front_ips (hybrid VMs add a non-cloud address, so they are
/// left out).
bool direct_a_front_end(const SubdomainTruth& truth) {
  return truth.on_cloud && !truth.hybrid &&
         (truth.front_end == FrontEnd::kVm ||
          truth.front_end == FrontEnd::kCloudService);
}

class Lookups final : public Workload {
 public:
  void setup(std::uint64_t seed, const std::string& /*scratch_dir*/,
             Layers& layers) override {
    world_.reset();
    const double start = wall_s();
    world_ = std::make_unique<World>(
        cs::synth::WorldConfig{.seed = seed, .domain_count = kDomains});
    layers["synth.world.build_ms"] = (wall_s() - start) * 1e3;
    targets_.clear();
    for (const auto& domain : world_->domains())
      for (const auto& sub : domain.subdomains)
        if (sub.discoverable) targets_.push_back(&sub);
    vantages_ = cs::internet::planetlab_vantages(kLookupVantages);
  }

  Pass run(bool traced, Checker& checker) override {
    Pass pass;
    std::optional<TracingTransport> tracer;
    if (traced) {
      tracer.emplace(world_->network());
      world_->set_transport_override(&*tracer);
    }
    pass.latencies_us.reserve(targets_.size() * vantages_.size());
    std::vector<cs::dns::ResolveResult> results(targets_.size() *
                                                vantages_.size());
    const Stopwatch watch;
    auto resolver = world_->make_resolver(vantages_.front().address);
    std::size_t next = 0;
    for (const auto& vantage : vantages_) {
      resolver.flush_cache();
      resolver.set_client_address(vantage.address);
      for (const auto* target : targets_) {
        const auto start = wall_ns();
        results[next++] = resolver.resolve(target->name, cs::dns::RrType::kA);
        pass.latencies_us.push_back(static_cast<double>(wall_ns() - start) /
                                    1e3);
      }
    }
    watch.stop(pass);
    world_->set_transport_override(nullptr);

    pass.units = static_cast<double>(results.size());
    pass.attempted = results.size();
    for (std::size_t i = 0; i < results.size(); ++i)
      pass.failed += !check(*targets_[i % targets_.size()], results[i],
                            checker);
    if (traced) pass.layers = dns_layers(tracer->take(), pass.cpu_s, pass.units);
    return pass;
  }

  const char* throughput_name() const override { return "lookups_per_s"; }
  const char* throughput_unit() const override { return "lookup/s"; }

 private:
  /// NOERROR with at least one address; a direct-A front end resolves to
  /// exactly its front_ips. Returns false for a failed or empty resolve.
  static bool check(const SubdomainTruth& truth,
                    const cs::dns::ResolveResult& result, Checker& checker) {
    const auto addresses = sorted_unique(result.addresses());
    if (!result.ok() || addresses.empty()) {
      checker.fail("lookups: " + truth.name.to_string() + " answered " +
                   cs::dns::to_string(result.rcode) + " with " +
                   std::to_string(addresses.size()) + " addresses");
      return false;
    }
    if (direct_a_front_end(truth) && result.cname_chain().empty() &&
        addresses != sorted_unique(truth.front_ips))
      checker.fail("lookups: " + truth.name.to_string() +
                   " resolved to other addresses than its front ends");
    if (truth.front_end == FrontEnd::kVm && direct_a_front_end(truth) &&
        !result.cname_chain().empty())
      checker.fail("lookups: VM front end " + truth.name.to_string() +
                   " answered through a CNAME");
    return true;
  }

  std::unique_ptr<World> world_;
  std::vector<const SubdomainTruth*> targets_;
  std::vector<cs::internet::VantagePoint> vantages_;
};

}  // namespace

std::unique_ptr<Workload> make_lookups() { return std::make_unique<Lookups>(); }

}  // namespace perfbench
