#pragma once

#include <atomic>
#include <cstdint>

#include "dns/transport.h"
#include "measure.h"

namespace perfbench {

/// A forwarding DNS transport that times and counts every exchange.
///
/// Installed with World::set_transport_override for traced passes only.
/// Each exchange is forwarded to the wrapped transport (the world's
/// simulated network), whose time is the server side: wire decode,
/// AuthoritativeServer::handle and encode. Each reply is then decoded
/// once more with dns::Message::decode to classify it; that decode is the
/// tracer's own cost and is kept apart so it can be subtracted.
/// Thread-safe: resolvers on every pool thread call exchange() at once.
class TracingTransport final : public cs::dns::DnsTransport {
 public:
  explicit TracingTransport(cs::dns::DnsTransport& inner) : inner_(inner) {}

  std::optional<std::vector<std::uint8_t>> exchange(
      cs::net::Ipv4 client, cs::net::Ipv4 server,
      std::span<const std::uint8_t> query) override;

  struct Totals {
    std::uint64_t exchanges = 0;
    std::uint64_t query_bytes = 0;
    std::uint64_t reply_bytes = 0;
    std::uint64_t referrals = 0;  ///< NS delegations without an answer
    std::uint64_t nxdomain = 0;
    std::uint64_t cname_records = 0;  ///< CNAMEs in answer sections
    std::uint64_t server_ns = 0;      ///< time inside the wrapped exchange
    std::uint64_t tracer_ns = 0;      ///< time spent classifying replies
  };

  /// Returns the totals since the last take() and resets them.
  Totals take();

 private:
  cs::dns::DnsTransport& inner_;
  std::atomic<std::uint64_t> exchanges_{0};
  std::atomic<std::uint64_t> query_bytes_{0};
  std::atomic<std::uint64_t> reply_bytes_{0};
  std::atomic<std::uint64_t> referrals_{0};
  std::atomic<std::uint64_t> nxdomain_{0};
  std::atomic<std::uint64_t> cname_records_{0};
  std::atomic<std::uint64_t> server_ns_{0};
  std::atomic<std::uint64_t> tracer_ns_{0};
};

/// The DNS per-layer readings of one traced pass. `cpu_s` is the pass's
/// process CPU; `units` is domains (census) or resolves (lookups).
Layers dns_layers(const TracingTransport::Totals& totals, double cpu_s,
                  double units);

}  // namespace perfbench
