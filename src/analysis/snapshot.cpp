#include "analysis/snapshot.h"

#include <type_traits>
#include <utility>
#include <variant>

#include "util/format.h"

namespace cs::snap {
namespace {

// --- generic helpers ------------------------------------------------------

template <typename T, typename Fn>
void encode_vec(Writer& w, const std::vector<T>& v, Fn&& element) {
  w.count(v.size());
  for (const auto& e : v) element(w, e);
}

/// `min_bytes` is the smallest encoding of one element; it bounds the
/// count by the bytes left, so a corrupted length cannot request an
/// absurd reservation.
template <typename T, typename Fn>
void decode_vec(Reader& r, std::vector<T>& v, std::size_t min_bytes,
                Fn&& element) {
  const auto n = r.count(min_bytes);
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) element(r, v.emplace_back());
}

// --- leaf value types -----------------------------------------------------

void encode(Writer& w, net::Ipv4 v) { w.u32(v.value()); }
void decode(Reader& r, net::Ipv4& v) { v = net::Ipv4{r.u32()}; }

void encode(Writer& w, const dns::Name& v) {
  encode_vec(w, v.labels(),
             [](Writer& wr, const std::string& label) { wr.str(label); });
}
void decode(Reader& r, dns::Name& v) {
  std::vector<std::string> labels;
  decode_vec(r, labels, 8, [](Reader& rd, std::string& s) { s = rd.str(); });
  auto name = dns::Name::from_labels(std::move(labels));
  if (!name) throw SnapshotError{"snapshot holds an invalid DNS name"};
  v = std::move(*name);
}

void encode(Writer& w, const dns::ResourceRecord& v) {
  encode(w, v.name);
  w.u32(v.ttl);
  w.u8(static_cast<std::uint8_t>(v.data.index()));
  std::visit(
      [&](const auto& data) {
        using D = std::decay_t<decltype(data)>;
        if constexpr (std::is_same_v<D, dns::ARecord>) {
          encode(w, data.address);
        } else if constexpr (std::is_same_v<D, dns::NsRecord>) {
          encode(w, data.nameserver);
        } else if constexpr (std::is_same_v<D, dns::CnameRecord>) {
          encode(w, data.target);
        } else if constexpr (std::is_same_v<D, dns::SoaRecord>) {
          encode(w, data.mname);
          encode(w, data.rname);
          w.u32(data.serial);
          w.u32(data.refresh);
          w.u32(data.retry);
          w.u32(data.expire);
          w.u32(data.minimum);
        } else {
          static_assert(std::is_same_v<D, dns::TxtRecord>);
          encode_vec(w, data.strings,
                     [](Writer& wr, const std::string& s) { wr.str(s); });
        }
      },
      v.data);
}
void decode(Reader& r, dns::ResourceRecord& v) {
  decode(r, v.name);
  v.ttl = r.u32();
  const auto tag = r.u8();
  switch (tag) {
    case 0: {
      dns::ARecord data;
      decode(r, data.address);
      v.data = data;
      break;
    }
    case 1: {
      dns::NsRecord data;
      decode(r, data.nameserver);
      v.data = data;
      break;
    }
    case 2: {
      dns::CnameRecord data;
      decode(r, data.target);
      v.data = data;
      break;
    }
    case 3: {
      dns::SoaRecord data;
      decode(r, data.mname);
      decode(r, data.rname);
      data.serial = r.u32();
      data.refresh = r.u32();
      data.retry = r.u32();
      data.expire = r.u32();
      data.minimum = r.u32();
      v.data = data;
      break;
    }
    case 4: {
      dns::TxtRecord data;
      decode_vec(r, data.strings, 8,
                 [](Reader& rd, std::string& s) { s = rd.str(); });
      v.data = data;
      break;
    }
    default:
      throw SnapshotError{
          util::fmt("snapshot resource record has unknown rdata tag {}", tag)};
  }
}

// --- dataset rows ---------------------------------------------------------

void encode(Writer& w, const analysis::SubdomainObservation& v) {
  encode(w, v.name);
  encode(w, v.domain);
  w.u64(v.domain_rank);
  encode_vec(w, v.records,
             [](Writer& wr, const dns::ResourceRecord& rr) { encode(wr, rr); });
  encode_vec(w, v.addresses, [](Writer& wr, net::Ipv4 a) { encode(wr, a); });
  encode_vec(w, v.cnames,
             [](Writer& wr, const dns::Name& n) { encode(wr, n); });
  w.boolean(v.direct_a_record);
  w.boolean(v.has_other_address);
  w.boolean(v.has_ec2_address);
  w.boolean(v.has_azure_address);
  w.boolean(v.has_cloudfront_address);
  encode_vec(w, v.name_servers, [](Writer& wr, const auto& ns) {
    encode(wr, ns.first);
    encode_vec(wr, ns.second, [](Writer& wa, net::Ipv4 a) { encode(wa, a); });
  });
}
void decode(Reader& r, analysis::SubdomainObservation& v) {
  decode(r, v.name);
  decode(r, v.domain);
  v.domain_rank = static_cast<std::size_t>(r.u64());
  decode_vec(r, v.records, 13,
             [](Reader& rd, dns::ResourceRecord& rr) { decode(rd, rr); });
  decode_vec(r, v.addresses, 4,
             [](Reader& rd, net::Ipv4& a) { decode(rd, a); });
  decode_vec(r, v.cnames, 8, [](Reader& rd, dns::Name& n) { decode(rd, n); });
  v.direct_a_record = r.boolean();
  v.has_other_address = r.boolean();
  v.has_ec2_address = r.boolean();
  v.has_azure_address = r.boolean();
  v.has_cloudfront_address = r.boolean();
  decode_vec(r, v.name_servers, 16, [](Reader& rd, auto& ns) {
    decode(rd, ns.first);
    decode_vec(rd, ns.second, 4,
               [](Reader& ra, net::Ipv4& a) { decode(ra, a); });
  });
}

void encode(Writer& w, const analysis::DomainObservation& v) {
  encode(w, v.name);
  w.u64(v.rank);
  w.boolean(v.axfr_succeeded);
  w.u64(v.subdomains_probed);
  encode_vec(w, v.cloud_subdomains,
             [](Writer& wr, std::size_t i) { wr.u64(i); });
  w.u64(v.other_only_subdomains);
  // Sparse (rcode, count) runs in rcode-name order.
  w.count(v.failed_lookups.distinct());
  v.failed_lookups.for_each_named(
      [&](dns::Rcode rcode, const char*, std::uint64_t count) {
        w.u8(static_cast<std::uint8_t>(rcode));
        w.u64(count);
      });
  w.u64(v.unresolved_subdomains);
}
void decode(Reader& r, analysis::DomainObservation& v,
            std::size_t subdomain_count) {
  decode(r, v.name);
  v.rank = static_cast<std::size_t>(r.u64());
  v.axfr_succeeded = r.boolean();
  v.subdomains_probed = static_cast<std::size_t>(r.u64());
  decode_vec(r, v.cloud_subdomains, 8,
             [subdomain_count](Reader& rd, std::size_t& i) {
               i = static_cast<std::size_t>(rd.u64());
               if (i >= subdomain_count)
                 throw SnapshotError{
                     "snapshot dataset cloud subdomain index out of range"};
             });
  v.other_only_subdomains = static_cast<std::size_t>(r.u64());
  const auto failed = r.count(9);
  v.failed_lookups = {};
  for (std::size_t i = 0; i < failed; ++i) {
    const auto rcode = r.u8();
    if (rcode >= analysis::FailedLookups::kRcodeCount)
      throw SnapshotError{
          util::fmt("snapshot failed-lookup rcode {} out of range", rcode)};
    v.failed_lookups.set(static_cast<dns::Rcode>(rcode), r.u64());
  }
  v.unresolved_subdomains = static_cast<std::size_t>(r.u64());
}

}  // namespace

void encode_artifact(Writer& w, const analysis::AlexaDataset& v) {
  encode_vec(w, v.cloud_subdomains,
             [](Writer& wr, const analysis::SubdomainObservation& s) {
               encode(wr, s);
             });
  encode_vec(w, v.domains,
             [](Writer& wr, const analysis::DomainObservation& d) {
               encode(wr, d);
             });
  w.u64(v.dns_queries_spent);
}
void decode_artifact(Reader& r, analysis::AlexaDataset& v) {
  decode_vec(r, v.cloud_subdomains, 61,
             [](Reader& rd, analysis::SubdomainObservation& s) {
               decode(rd, s);
             });
  decode_vec(r, v.domains, 57,
             [subs = v.cloud_subdomains.size()](
                 Reader& rd, analysis::DomainObservation& d) {
               decode(rd, d, subs);
             });
  v.dns_queries_spent = r.u64();
}

void encode_artifact(Writer& w, const analysis::DatasetBuilder::Resume& v) {
  encode_artifact(w, v.dataset);
  w.u64(v.next_domain);
}
void decode_artifact(Reader& r, analysis::DatasetBuilder::Resume& v) {
  decode_artifact(r, v.dataset);
  v.next_domain = static_cast<std::size_t>(r.u64());
  // A partial checkpoint covers exactly the domains before next_domain.
  if (v.next_domain != v.dataset.domains.size())
    throw SnapshotError{util::fmt(
        "snapshot partial dataset resume point {} does not match its {} "
        "probed domains",
        v.next_domain, v.dataset.domains.size())};
}

}  // namespace cs::snap
