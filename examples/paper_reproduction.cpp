// One-shot reproduction driver: regenerates every table and figure of
// the paper from a single shared Study (much faster than running the 26
// bench binaries, which each rebuild their own universe) and writes each
// artifact to a file.
//
//   ./examples/paper_reproduction [output_dir] [domain_count]
//       [--checkpoint <dir>] [--resume] [--halt-after <stage>]
//       [--max-rss-mb <mb>]
//
// --checkpoint <dir>  snapshot each completed stage into <dir>
// --resume            reuse snapshots from --checkpoint / CS_CHECKPOINT
//                     (snapshotting implies resuming; the flag exists so
//                     `--resume` alone can point at CS_CHECKPOINT)
// --halt-after <st>   build through stage <st>, then exit 0 — a
//                     deterministic stand-in for "the run was killed
//                     here", used by the crash-resume CI job
// --max-rss-mb <mb>   exit 3 if peak RSS exceeded <mb> at the end of the
//                     run — the paper-scale CI job's memory-budget gate
//                     over the streaming pipeline
//
// CS_SEED picks the world seed (default 2013), as it does for the benches.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/report.h"
#include "core/study.h"
#include "obs/report.h"
#include "util/env.h"
#include "util/format.h"

int main(int argc, char** argv) {
  using namespace cs;

  std::vector<std::string> positional;
  std::string checkpoint_dir;
  std::string halt_after;
  bool resume = false;
  long long max_rss_mb = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--max-rss-mb") {
      if (i + 1 >= argc) {
        std::cerr << "--max-rss-mb needs a megabyte count\n";
        return 2;
      }
      max_rss_mb = std::strtoll(argv[++i], nullptr, 10);
      if (max_rss_mb <= 0) {
        std::cerr << "--max-rss-mb needs a positive megabyte count\n";
        return 2;
      }
    } else if (arg == "--checkpoint") {
      if (i + 1 >= argc) {
        std::cerr << "--checkpoint needs a directory\n";
        return 2;
      }
      checkpoint_dir = argv[++i];
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--halt-after") {
      if (i + 1 >= argc) {
        std::cerr << "--halt-after needs a stage name\n";
        return 2;
      }
      halt_after = argv[++i];
    } else {
      positional.emplace_back(arg);
    }
  }

  const std::filesystem::path dir =
      !positional.empty() ? positional[0] : "/tmp/cloudscope_paper";
  std::filesystem::create_directories(dir);

  core::StudyConfig config;
  config.world.domain_count =
      positional.size() > 1 ? std::strtoull(positional[1].c_str(), nullptr, 10)
                            : 1500;
  if (const auto seed = util::env_text(util::Knob::kSeed)) {
    if (const auto parsed = util::parse_env_unsigned(*seed))
      config.world.seed = *parsed;
    else
      std::cerr << util::env_malformed(util::Knob::kSeed, *seed,
                                       "an unsigned integer")
                << "\n";
  }
  config.checkpoint_dir = checkpoint_dir;
  if (resume && checkpoint_dir.empty() &&
      !util::env_text("CS_CHECKPOINT")) {
    std::cerr << "--resume needs --checkpoint <dir> or CS_CHECKPOINT\n";
    return 2;
  }

  std::cout << "Reproducing all tables and figures over "
            << config.world.domain_count << " domains into " << dir.string()
            << " ...\n";
  core::Study study{config};

  if (!halt_after.empty()) {
    bool found = false;
    for (const auto& desc : core::Study::stage_table()) {
      study.build_stage(desc.name);
      if (halt_after == desc.name) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "--halt-after: unknown stage '" << halt_after << "'\n";
      return 2;
    }
    std::cout << "Halted after stage '" << halt_after
              << "' (simulated crash).\n";
    return 0;
  }

  std::size_t written = 0;
  auto emit = [&](const std::string& name, const std::string& text) {
    std::ofstream out{dir / name};
    out << text;
    ++written;
    std::cout << "  " << name << "\n";
  };

  emit("table01.txt", core::render_table1(study.capture()));
  emit("table02.txt", core::render_table2(study.capture()));
  emit("table03.txt", core::render_table3(study.cloud_usage()));
  emit("table04.txt", core::render_table4(study.cloud_usage()));
  emit("table05.txt", core::render_table5(study.capture()));
  emit("table06.txt", core::render_table6(study.capture()));
  emit("table07.txt", core::render_table7(study.patterns()));
  emit("table08.txt", core::render_table8(study));
  emit("table09.txt", core::render_table9(study.regions()));
  emit("table10.txt", core::render_table10(study));
  emit("table11.txt", core::render_table11(study));
  emit("table12.txt", core::render_table12(study.zone_study()));
  emit("table13.txt", core::render_table13(study.zone_study()));
  emit("table14.txt", core::render_table14(study.zone_study()));
  emit("table15.txt", core::render_table15(study));
  emit("table16.txt", core::render_table16(study.isp_study()));

  emit("fig03.txt", core::render_fig3(study.capture()));
  emit("fig04.txt", core::render_fig4(study.patterns()));
  emit("fig05.txt", core::render_fig5(study.patterns()));
  emit("fig06.txt", core::render_fig6(study.regions()));
  emit("fig07.txt", core::render_fig7(study));
  emit("fig08.txt", core::render_fig8(study.zone_study()));
  emit("fig09_10.txt",
       core::render_fig9_10(analysis::average_matrix(study.campaign())));
  {
    // Figure 11 needs a Boulder-focused series from the shared campaign
    // when Boulder is among the vantages; otherwise run a dedicated one.
    try {
      emit("fig11.txt", core::render_fig11(analysis::flapping_series(
                            study.campaign(), "boulder")));
    } catch (const std::invalid_argument&) {
      std::vector<internet::VantagePoint> boulder = {
          internet::vantage_named("boulder")};
      std::vector<const cloud::Region*> regions;
      for (const auto& region : study.world().ec2().regions())
        regions.push_back(&region);
      const auto campaign = analysis::run_campaign(
          study.wan_model(), boulder, regions, 3.0);
      emit("fig11.txt",
           core::render_fig11(analysis::flapping_series(campaign,
                                                         "boulder")));
    }
  }
  emit("fig12.txt",
       core::render_fig12(analysis::optimal_k_regions(study.campaign())));

  // Not a paper artifact: how much data the run lost along the way
  // (meaningful under CS_FAULT, all-zero otherwise).
  emit("data_quality.txt", core::render_data_quality(study));

  if (const auto& store = study.checkpoint_store())
    std::cout << util::fmt("resumed {} of {} stages from {}\n",
                           study.stages_resumed(),
                           core::Study::stage_table().size(),
                           store->dir().string());

  std::cout << util::fmt("\n{} artifacts written. Compare against the "
                         "paper with EXPERIMENTS.md.\n",
                         written);

  const auto usage = obs::resource_usage();
  std::cout << util::fmt("peak RSS: {} MB\n", usage.peak_rss_kb / 1024);
  if (max_rss_mb > 0 && usage.peak_rss_kb > max_rss_mb * 1024) {
    std::cerr << util::fmt(
        "peak RSS {} MB exceeded the --max-rss-mb budget of {} MB\n",
        usage.peak_rss_kb / 1024, max_rss_mb);
    return 3;
  }
  return 0;
}
