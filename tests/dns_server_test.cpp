#include "dns/server.h"

#include <gtest/gtest.h>

namespace cs::dns {
namespace {

SoaRecord soa_for(std::string_view origin) {
  SoaRecord soa;
  soa.mname = *Name::must_parse(origin).child("ns1");
  soa.rname = *Name::must_parse(origin).child("hostmaster");
  soa.serial = 42;
  return soa;
}

AuthoritativeServer make_server() {
  AuthoritativeServer server;
  auto& zone = server.add_zone(Name::must_parse("example.com"),
                               soa_for("example.com"));
  zone.add(ResourceRecord::a(Name::must_parse("www.example.com"),
                             net::Ipv4(192, 0, 2, 10)));
  zone.add(ResourceRecord::cname(Name::must_parse("m.example.com"),
                                 Name::must_parse("www.example.com")));
  zone.add(ResourceRecord::cname(
      Name::must_parse("cdn.example.com"),
      Name::must_parse("d111.cloudfront.example-cdn.net")));
  zone.add(ResourceRecord::ns(Name::must_parse("api.example.com"),
                              Name::must_parse("ns.api.example.com")));
  zone.add(ResourceRecord::a(Name::must_parse("ns.api.example.com"),
                             net::Ipv4(192, 0, 2, 53)));
  zone.add(ResourceRecord::txt(Name::must_parse("txt-only.example.com"),
                               {"hello"}));
  return server;
}

Message ask(const AuthoritativeServer& server, std::string_view name,
            RrType type, net::Ipv4 client = net::Ipv4(198, 51, 100, 1)) {
  return server.handle(client,
                       Message::query(99, Name::must_parse(name), type));
}

TEST(Server, AuthoritativeAnswer) {
  const auto server = make_server();
  const auto r = ask(server, "www.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(r.header.aa);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(r.answers[0].data).address,
            net::Ipv4(192, 0, 2, 10));
}

TEST(Server, InZoneCnameChase) {
  const auto server = make_server();
  const auto r = ask(server, "m.example.com", RrType::kA);
  ASSERT_EQ(r.answers.size(), 2u);
  EXPECT_EQ(r.answers[0].type(), RrType::kCname);
  EXPECT_EQ(r.answers[1].type(), RrType::kA);
}

TEST(Server, OutOfZoneCnameReturnsCnameOnly) {
  const auto server = make_server();
  const auto r = ask(server, "cdn.example.com", RrType::kA);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].type(), RrType::kCname);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
}

TEST(Server, CnameQueryNotChased) {
  const auto server = make_server();
  const auto r = ask(server, "m.example.com", RrType::kCname);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].type(), RrType::kCname);
}

TEST(Server, NxDomainCarriesSoa) {
  const auto server = make_server();
  const auto r = ask(server, "missing.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNxDomain);
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), RrType::kSoa);
}

TEST(Server, NodataIsNoErrorWithSoa) {
  const auto server = make_server();
  const auto r = ask(server, "txt-only.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
  EXPECT_TRUE(r.answers.empty());
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), RrType::kSoa);
}

TEST(Server, ReferralWithGlue) {
  const auto server = make_server();
  const auto r = ask(server, "deep.api.example.com", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kNoError);
  EXPECT_FALSE(r.header.aa);
  EXPECT_TRUE(r.answers.empty());
  ASSERT_EQ(r.authority.size(), 1u);
  EXPECT_EQ(r.authority[0].type(), RrType::kNs);
  ASSERT_EQ(r.additional.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(r.additional[0].data).address,
            net::Ipv4(192, 0, 2, 53));
}

TEST(Server, RefusesForeignZone) {
  const auto server = make_server();
  const auto r = ask(server, "www.other.org", RrType::kA);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
}

TEST(Server, AxfrDeniedByDefault) {
  const auto server = make_server();
  const auto r = ask(server, "example.com", RrType::kAxfr);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
}

TEST(Server, AxfrPolicyAllows) {
  auto server = make_server();
  server.set_axfr_policy(
      [](net::Ipv4 client, const Name&) { return client.octet(0) == 198; });
  const auto allowed = ask(server, "example.com", RrType::kAxfr,
                           net::Ipv4(198, 51, 100, 7));
  EXPECT_EQ(allowed.header.rcode, Rcode::kNoError);
  EXPECT_GE(allowed.answers.size(), 3u);
  EXPECT_EQ(allowed.answers.front().type(), RrType::kSoa);
  EXPECT_EQ(allowed.answers.back().type(), RrType::kSoa);

  const auto denied = ask(server, "example.com", RrType::kAxfr,
                          net::Ipv4(203, 0, 113, 7));
  EXPECT_EQ(denied.header.rcode, Rcode::kRefused);
}

TEST(Server, AxfrOnlyAtApex) {
  auto server = make_server();
  server.set_axfr_policy([](net::Ipv4, const Name&) { return true; });
  const auto r = ask(server, "www.example.com", RrType::kAxfr);
  EXPECT_EQ(r.header.rcode, Rcode::kRefused);
}

TEST(Server, MostSpecificZoneWins) {
  AuthoritativeServer server;
  server.add_zone(Name::must_parse("com"), soa_for("com"));
  auto& child =
      server.add_zone(Name::must_parse("example.com"), soa_for("example.com"));
  child.add(ResourceRecord::a(Name::must_parse("www.example.com"),
                              net::Ipv4(1, 2, 3, 4)));
  const auto r = ask(server, "www.example.com", RrType::kA);
  EXPECT_TRUE(r.header.aa);
  ASSERT_EQ(r.answers.size(), 1u);
}

// Owner of the SOA a negative answer carries: the origin of the zone that
// answered.
Name answering_zone(const AuthoritativeServer& server, std::string_view name) {
  const auto r = ask(server, name, RrType::kA);
  EXPECT_NE(r.header.rcode, Rcode::kRefused) << name;
  EXPECT_EQ(r.authority.size(), 1u) << name;
  return r.authority.empty() ? Name{} : r.authority.front().name;
}

AuthoritativeServer make_nested_server() {
  AuthoritativeServer server;
  for (const auto* origin : {".", "com", "example.com", "a.example.com"})
    server.add_zone(Name::must_parse(origin), soa_for(origin));
  return server;
}

TEST(Server, DeepestEnclosingZoneAnswersEachLevel) {
  const auto server = make_nested_server();
  EXPECT_EQ(answering_zone(server, "x.b.a.example.com"),
            Name::must_parse("a.example.com"));
  EXPECT_EQ(answering_zone(server, "x.b.example.com"),
            Name::must_parse("example.com"));
  EXPECT_EQ(answering_zone(server, "notexample.com"),
            Name::must_parse("com"));
  EXPECT_EQ(answering_zone(server, "www.example.org"), Name{});
}

TEST(Server, NameEqualToAnOriginPicksThatZone) {
  const auto server = make_nested_server();
  for (const auto* origin : {".", "com", "example.com", "a.example.com"}) {
    const auto r = ask(server, origin, RrType::kA);
    EXPECT_EQ(r.header.rcode, Rcode::kNoError) << origin;  // NODATA
    ASSERT_EQ(r.authority.size(), 1u) << origin;
    EXPECT_EQ(r.authority.front().name, Name::must_parse(origin));
  }
}

TEST(Server, WithoutTheRootZoneUnrelatedNamesAreRefused) {
  AuthoritativeServer server;
  for (const auto* origin : {"example.com", "a.example.com"})
    server.add_zone(Name::must_parse(origin), soa_for(origin));
  for (const auto* name : {"www.example.org", "com", "notexample.com", "."})
    EXPECT_EQ(ask(server, name, RrType::kA).header.rcode, Rcode::kRefused)
        << name;
  EXPECT_EQ(answering_zone(server, "x.b.a.example.com"),
            Name::must_parse("a.example.com"));
}

TEST(Server, WireRoundTrip) {
  const auto server = make_server();
  const auto q = Message::query(7, Name::must_parse("www.example.com"),
                                RrType::kA);
  const auto wire = server.handle_wire(net::Ipv4(9, 9, 9, 9), q.encode());
  const auto r = Message::decode(wire);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->header.id, 7);
  EXPECT_EQ(r->answers.size(), 1u);
}

TEST(Server, MalformedWireYieldsFormErr) {
  const auto server = make_server();
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  const auto wire = server.handle_wire(net::Ipv4(9, 9, 9, 9), garbage);
  const auto r = Message::decode(wire);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->header.rcode, Rcode::kFormErr);
}

TEST(Server, ResponseToQueryMessageWithQrSetIsFormErr) {
  const auto server = make_server();
  auto q = Message::query(7, Name::must_parse("www.example.com"), RrType::kA);
  q.header.qr = true;
  const auto r = server.handle(net::Ipv4(9, 9, 9, 9), q);
  EXPECT_EQ(r.header.rcode, Rcode::kFormErr);
}

}  // namespace
}  // namespace cs::dns
