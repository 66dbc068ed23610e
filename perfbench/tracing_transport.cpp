#include "tracing_transport.h"

#include <algorithm>
#include <variant>

#include "dns/message.h"

namespace perfbench {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

bool is_referral(const cs::dns::Message& reply) {
  if (reply.header.rcode != cs::dns::Rcode::kNoError ||
      !reply.answers.empty())
    return false;
  for (const auto& rr : reply.authority)
    if (std::holds_alternative<cs::dns::NsRecord>(rr.data)) return true;
  return false;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> TracingTransport::exchange(
    cs::net::Ipv4 client, cs::net::Ipv4 server,
    std::span<const std::uint8_t> query) {
  const auto start = wall_ns();
  auto reply = inner_.exchange(client, server, query);
  const auto served = wall_ns();

  exchanges_.fetch_add(1, kRelaxed);
  query_bytes_.fetch_add(query.size(), kRelaxed);
  server_ns_.fetch_add(static_cast<std::uint64_t>(served - start), kRelaxed);
  if (reply) {
    reply_bytes_.fetch_add(reply->size(), kRelaxed);
    if (const auto message = cs::dns::Message::decode(*reply)) {
      if (message->header.rcode == cs::dns::Rcode::kNxDomain)
        nxdomain_.fetch_add(1, kRelaxed);
      if (is_referral(*message)) referrals_.fetch_add(1, kRelaxed);
      std::uint64_t cnames = 0;
      for (const auto& rr : message->answers)
        cnames += std::holds_alternative<cs::dns::CnameRecord>(rr.data);
      cname_records_.fetch_add(cnames, kRelaxed);
    }
  }
  tracer_ns_.fetch_add(static_cast<std::uint64_t>(wall_ns() - served),
                       kRelaxed);
  return reply;
}

TracingTransport::Totals TracingTransport::take() {
  return Totals{.exchanges = exchanges_.exchange(0),
                .query_bytes = query_bytes_.exchange(0),
                .reply_bytes = reply_bytes_.exchange(0),
                .referrals = referrals_.exchange(0),
                .nxdomain = nxdomain_.exchange(0),
                .cname_records = cname_records_.exchange(0),
                .server_ns = server_ns_.exchange(0),
                .tracer_ns = tracer_ns_.exchange(0)};
}

Layers dns_layers(const TracingTransport::Totals& totals, double cpu_s,
                  double units) {
  const auto exchanges = static_cast<double>(totals.exchanges);
  const auto server_ns = static_cast<double>(totals.server_ns);
  // Everything the process burnt that was neither serving nor tracing:
  // resolver, enumerator and dataset work.
  const double client_ns = std::max(
      0.0, cpu_s * 1e9 - server_ns - static_cast<double>(totals.tracer_ns));
  return Layers{
      {"dns.exchange.count", exchanges},
      {"dns.exchange.per_unit", ratio(exchanges, units)},
      {"dns.exchange.referral_share",
       ratio(static_cast<double>(totals.referrals), exchanges)},
      {"dns.exchange.nxdomain_share",
       ratio(static_cast<double>(totals.nxdomain), exchanges)},
      {"dns.exchange.query_bytes", static_cast<double>(totals.query_bytes)},
      {"dns.exchange.reply_bytes", static_cast<double>(totals.reply_bytes)},
      {"dns.server.busy_ms", server_ns / 1e6},
      {"dns.server.ns_per_exchange", ratio(server_ns, exchanges)},
      {"dns.client.busy_ms", client_ns / 1e6},
      {"dns.client.ns_per_exchange", ratio(client_ns, exchanges)},
      {"dns.resolve.cname_hops", static_cast<double>(totals.cname_records)},
  };
}

}  // namespace perfbench
