#include "dns/zone.h"

namespace cs::dns {
namespace {

/// Appends copies of `recs` to `out`, putting back the owner name that
/// stored records leave out.
void append_owned(std::vector<ResourceRecord>& out, const Name& owner,
                  const std::vector<ResourceRecord>& recs) {
  for (const auto& rr : recs) {
    out.push_back(rr);
    out.back().name = owner;
  }
}

}  // namespace

Zone::Zone(Name origin, SoaRecord soa)
    : origin_(std::move(origin)),
      soa_(std::move(soa)),
      nodes_(&Name::canonical_less) {
  ResourceRecord apex;
  apex.ttl = 3600;
  apex.data = soa_;
  nodes_[origin_].by_type[RrType::kSoa].push_back(std::move(apex));
  ++record_count_;
}

bool Zone::add(ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(origin_)) return false;
  auto& node = nodes_[rr.name];
  const bool adding_cname = rr.type() == RrType::kCname;
  const bool has_cname = node.by_type.contains(RrType::kCname);
  const bool has_other = !node.by_type.empty() && !has_cname;
  if ((adding_cname && has_other) || (!adding_cname && has_cname))
    return false;
  // The node key already holds the owner name; a stored copy per record
  // was about a sixth of a synthetic world's heap.
  rr.name = Name{};
  node.by_type[rr.type()].push_back(std::move(rr));
  ++record_count_;
  return true;
}

bool Zone::has_name(const Name& name) const { return nodes_.contains(name); }

std::vector<ResourceRecord> Zone::find(const Name& name, RrType type) const {
  const auto node = nodes_.find(name);
  if (node == nodes_.end()) return {};
  if (type == RrType::kAny) return find_all(name);
  const auto recs = node->second.by_type.find(type);
  if (recs == node->second.by_type.end()) return {};
  std::vector<ResourceRecord> out;
  out.reserve(recs->second.size());
  append_owned(out, node->first, recs->second);
  return out;
}

std::vector<ResourceRecord> Zone::find_all(const Name& name) const {
  const auto node = nodes_.find(name);
  if (node == nodes_.end()) return {};
  std::vector<ResourceRecord> out;
  for (const auto& [type, recs] : node->second.by_type)
    append_owned(out, node->first, recs);
  return out;
}

std::optional<Name> Zone::delegation_cut(const Name& name) const {
  // Walk from the query name towards the apex; the first (deepest) non-apex
  // owner of NS records below which `name` falls is the cut. We must return
  // the *shallowest* cut between apex and name per RFC 1034 resolution, so
  // walk top-down instead: check each ancestor from just below the apex.
  if (!name.is_subdomain_of(origin_)) return std::nullopt;
  // Collect ancestors from apex (exclusive) down to name (inclusive).
  std::vector<Name> chain;
  Name cursor = name;
  while (cursor != origin_) {
    chain.push_back(cursor);
    if (cursor.is_root()) break;
    cursor = cursor.parent();
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const auto node = nodes_.find(*it);
    if (node != nodes_.end() && node->second.by_type.contains(RrType::kNs))
      return *it;
  }
  return std::nullopt;
}

std::vector<ResourceRecord> Zone::axfr() const {
  std::vector<ResourceRecord> out;
  ResourceRecord apex;
  apex.name = origin_;
  apex.ttl = 3600;
  apex.data = soa_;
  out.push_back(apex);
  for (const auto& [name, node] : nodes_) {
    for (const auto& [type, recs] : node.by_type) {
      if (type == RrType::kSoa) continue;
      append_owned(out, name, recs);
    }
  }
  out.push_back(std::move(apex));
  return out;
}

std::vector<Name> Zone::names() const {
  std::vector<Name> out;
  out.reserve(nodes_.size());
  for (const auto& [name, node] : nodes_) out.push_back(name);
  return out;
}

}  // namespace cs::dns
