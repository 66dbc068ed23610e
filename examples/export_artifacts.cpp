// Interchange demo: export a study's raw artifacts in the formats the
// rest of the ecosystem speaks — Bro/Zeek-style TSV logs for the capture
// and an RFC-1035 master file for a domain's zone — then re-import both
// to show the round trip is lossless.
//
//   ./examples/export_artifacts [output_dir]
//
// Any flag prints the usage line and exits 2.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/study.h"
#include "dns/zonefile.h"
#include "proto/logfile.h"
#include "util/format.h"

namespace {

constexpr const char* kUsage =
    "usage: export_artifacts [output_dir]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cs;

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() > 1 && arg.front() == '-') {
      std::cerr << "unknown flag '" << arg << "'\n" << kUsage;
      return 2;
    } else {
      positional.emplace_back(arg);
    }
  }
  const std::filesystem::path dir =
      !positional.empty() ? positional[0] : "/tmp/cloudscope_artifacts";
  std::filesystem::create_directories(dir);

  core::StudyConfig config;
  config.world.domain_count = 200;
  config.traffic.total_web_bytes = 4ull * 1024 * 1024;
  core::Study study{config};

  // 1. The capture, as Zeek logs.
  const auto& logs = study.capture_logs();

  auto write = [&dir](const std::string& name, const std::string& text) {
    std::ofstream out{dir / name};
    out << text;
    std::cout << "wrote " << (dir / name).string() << " ("
              << text.size() << " bytes)\n";
  };
  write("conn.log", proto::to_conn_log(logs));
  write("http.log", proto::to_http_log(logs));
  write("ssl.log", proto::to_ssl_log(logs));

  // Round trip check.
  const auto reparsed = proto::parse_conn_log(proto::to_conn_log(logs));
  std::cout << util::fmt("conn.log round trip: {} of {} records\n",
                         reparsed.size(), logs.conns.size());

  // 2. A domain zone, as a master file pulled over AXFR-like access.
  auto& world = study.world();
  auto resolver = world.make_resolver(net::Ipv4(199, 16, 0, 10));
  for (const auto& domain : world.domains()) {
    if (!domain.axfr_open || !domain.cloud_using()) continue;
    const auto records = resolver.try_axfr(domain.name);
    if (!records) continue;
    // Rebuild a zone object from the transfer and serialize it.
    dns::SoaRecord soa;
    for (const auto& rr : *records)
      if (const auto* s = std::get_if<dns::SoaRecord>(&rr.data)) soa = *s;
    dns::Zone zone{domain.name, soa};
    for (const auto& rr : *records)
      if (rr.type() != dns::RrType::kSoa) zone.add(rr);
    const auto text = dns::to_zonefile(zone);
    write(domain.name.to_string() + ".zone", text);

    const auto parsed = dns::parse_zonefile(text);
    std::cout << util::fmt(
        "zone round trip: {} records, {} parse errors\n",
        parsed.zone ? parsed.zone->record_count() : 0,
        parsed.errors.size());
    break;  // one exemplar is enough
  }
  return 0;
}
