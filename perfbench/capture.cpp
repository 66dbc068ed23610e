// capture: the one-week campus trace, synthesized and written to a pcap
// file in set-up, then replayed through the §3 pipeline in every pass:
// PcapReader -> FlowAssembler -> proto::analyze_flows ->
// analysis::analyze_capture.

#include <filesystem>
#include <map>
#include <optional>

#include "analysis/capture.h"
#include "core/report.h"
#include "core/study.h"
#include "pcap/file.h"
#include "pcap/flow.h"
#include "proto/logs.h"
#include "synth/traffic.h"
#include "synth/world.h"
#include "workload.h"

namespace perfbench {
namespace {

using cs::analysis::CaptureReport;
using cs::synth::World;

/// Frames read from the file per FlowAssembler::feed call.
constexpr std::size_t kBatchFrames = 4096;

/// Every field of a capture report in one string: the paper's rendered
/// tables plus the exact CDF samples and counts behind Figure 3.
std::string digest(const CaptureReport& report) {
  std::string out = cs::core::render_table1(report) +
                    cs::core::render_table2(report) +
                    cs::core::render_table5(report) +
                    cs::core::render_table6(report) +
                    cs::core::render_fig3(report);
  for (const auto* cdf :
       {&report.http_flows_per_domain_ec2, &report.http_flows_per_domain_azure,
        &report.https_flows_per_cn_ec2, &report.https_flows_per_cn_azure,
        &report.http_flow_size_ec2, &report.http_flow_size_azure,
        &report.https_flow_size_ec2, &report.https_flow_size_azure})
    for (const double sample : cdf->sorted_samples())
      out += full_digits(sample) + "\n";
  for (const double value :
       {static_cast<double>(report.unique_domains_ec2),
        static_cast<double>(report.unique_domains_azure),
        static_cast<double>(report.domains_in_alexa),
        report.top100_http_flow_share_ec2, report.top100_http_flow_share_azure})
    out += full_digits(value) + "\n";
  return out;
}

class Capture final : public Workload {
 public:
  Capture() = default;
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;
  ~Capture() override { remove_trace(); }

  void setup(std::uint64_t seed, const std::string& scratch_dir,
             Layers& layers) override {
    world_.reset();
    remove_trace();
    seed_ = seed;
    double start = wall_s();
    world_ = std::make_unique<World>(
        cs::synth::WorldConfig{.seed = seed, .domain_count = kDomains});
    layers["synth.world.build_ms"] = (wall_s() - start) * 1e3;

    start = wall_s();
    cs::synth::TrafficGenerator generator{*world_, cs::synth::TrafficConfig{}};
    auto packets = generator.generate();
    layers["synth.traffic.generate_ms"] = (wall_s() - start) * 1e3;

    path_ = scratch_dir + "/capture-" + std::to_string(seed) + ".pcap";
    cs::pcap::write_all(path_, packets);
    frames_written_ = packets.size();
    file_bytes_ = std::filesystem::file_size(path_);

    // The generator launched instances for its tenants, so the ranges are
    // snapshotted after it (as core::Study does).
    ranges_.emplace(world_->ec2(), world_->azure());
    rank_of_.clear();
    for (const auto& domain : world_->domains())
      rank_of_[domain.name.to_string()] = domain.rank;
  }

  Pass run(bool traced, Checker& checker) override {
    Pass pass;
    // Layer timers read the clock once per batch and stage, so the traced
    // pass runs the same code as the untraced one.
    std::int64_t read_ns = 0;
    std::int64_t flow_ns = 0;
    std::uint64_t frame_bytes = 0;
    auto lap = [mark = wall_ns()]() mutable {
      const auto now = wall_ns();
      const auto elapsed = now - mark;
      mark = now;
      return elapsed;
    };

    const Stopwatch watch;
    cs::pcap::PcapReader reader{path_};
    cs::pcap::FlowAssembler assembler;
    std::vector<cs::pcap::Packet> batch;
    batch.reserve(kBatchFrames);
    lap();
    for (;;) {
      while (batch.size() < kBatchFrames) {
        auto packet = reader.next();
        if (!packet) break;
        frame_bytes += packet->size();
        batch.push_back(std::move(*packet));
      }
      read_ns += lap();
      if (batch.empty()) break;
      assembler.feed(batch);
      batch.clear();
      flow_ns += lap();
    }
    const auto flows = assembler.finish();
    flow_ns += lap();
    const auto logs = cs::proto::analyze_flows(flows);
    const auto proto_ns = lap();
    const auto report = cs::analysis::analyze_capture(logs, *ranges_, rank_of_);
    const auto analysis_ns = lap();
    watch.stop(pass);

    const auto frames = static_cast<double>(reader.packets_read());
    pass.units = static_cast<double>(file_bytes_) / 1e6;
    pass.attempted = reader.packets_read();
    pass.failed = assembler.undecodable_packets();
    if (traced) {
      pass.layers = Layers{
          {"pcap.read.ns_per_frame", ratio(static_cast<double>(read_ns), frames)},
          {"pcap.read.frames", frames},
          {"pcap.read.bytes", static_cast<double>(frame_bytes)},
          {"pcap.flow.ns_per_frame", ratio(static_cast<double>(flow_ns), frames)},
          {"pcap.flow.flows", static_cast<double>(flows.size())},
          {"pcap.flow.undecodable",
           static_cast<double>(assembler.undecodable_packets())},
          {"proto.analyze.ns_per_flow",
           ratio(static_cast<double>(proto_ns),
                 static_cast<double>(flows.size()))},
          {"proto.http.records", static_cast<double>(logs.http.size())},
          {"proto.ssl.records", static_cast<double>(logs.ssl.size())},
          {"analysis.capture.ms", static_cast<double>(analysis_ns) / 1e6},
      };
    }

    if (reader.packets_read() != frames_written_)
      checker.fail("capture: read " + std::to_string(reader.packets_read()) +
                   " frames of " + std::to_string(frames_written_) +
                   " written");
    auto text = digest(report);
    if (report_ && *report_ != text)
      checker.fail("capture: the report differs between passes");
    report_ = std::move(text);
    return pass;
  }

  /// The replayed report matches the one core::Study builds for the seed.
  void final_check(Checker& checker) override {
    cs::core::StudyConfig config;
    config.world = cs::synth::WorldConfig{.seed = seed_, .domain_count = kDomains};
    cs::core::Study study{config};
    if (!report_ || digest(study.capture()) != *report_)
      checker.fail("capture: the replayed report differs from core::Study's");
  }

  const char* throughput_name() const override { return "capture_mb_per_s"; }
  const char* throughput_unit() const override { return "MB/s"; }

 private:
  void remove_trace() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
    path_.clear();
  }

  std::uint64_t seed_ = 0;
  std::unique_ptr<World> world_;
  std::string path_;
  std::uint64_t frames_written_ = 0;
  std::uint64_t file_bytes_ = 0;
  std::optional<cs::analysis::CloudRanges> ranges_;
  std::map<std::string, std::size_t> rank_of_;
  std::optional<std::string> report_;
};

}  // namespace

std::unique_ptr<Workload> make_capture() { return std::make_unique<Capture>(); }

}  // namespace perfbench
