// One-shot reproduction driver: regenerates every table and figure of
// the paper from a single shared Study (much faster than running the 26
// bench binaries, which each rebuild their own universe) and writes each
// artifact to a file.
//
//   ./examples/paper_reproduction [output_dir] [domain_count]
//       [--checkpoint <dir>] [--halt-after <stage>] [--max-rss-mb <mb>]
//
// --checkpoint <dir>  keep the dataset snapshot in <dir> (CS_CHECKPOINT
//                     does the same); a run that finds one there resumes
//                     from it instead of redoing the census
// --halt-after <st>   build through stage <st>, then exit 0 — a
//                     deterministic stand-in for "the run was killed
//                     here", used by the crash-resume CI job
// --max-rss-mb <mb>   exit 3 if peak RSS exceeded <mb> at the end of the
//                     run — the paper-scale CI job's memory-budget gate
//                     over the streaming pipeline
//
// Any other flag, an unknown stage name, a malformed domain count or a
// malformed megabyte count prints the usage line and exits 2, before any
// stage runs. CS_SEED picks the world seed (default 2013), as it does for
// the benches.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/study.h"
#include "obs/report.h"
#include "util/env.h"
#include "util/format.h"

namespace {

constexpr const char* kUsage =
    "usage: paper_reproduction [output_dir] [domain_count] "
    "[--checkpoint <dir>] [--halt-after <stage>] [--max-rss-mb <mb>]\n";

int usage_error() {
  std::cerr << kUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cs;

  std::vector<std::string> positional;
  std::string checkpoint_dir;
  std::string halt_after;
  unsigned max_rss_mb = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--max-rss-mb") {
      const auto mb =
          i + 1 < argc ? util::parse_env_unsigned(argv[++i]) : std::nullopt;
      if (!mb || *mb == 0) {
        std::cerr << "--max-rss-mb needs a positive megabyte count\n";
        return usage_error();
      }
      max_rss_mb = *mb;
    } else if (arg == "--checkpoint") {
      if (i + 1 >= argc) {
        std::cerr << "--checkpoint needs a directory\n";
        return usage_error();
      }
      checkpoint_dir = argv[++i];
    } else if (arg == "--halt-after") {
      if (i + 1 >= argc) {
        std::cerr << "--halt-after needs a stage name\n";
        return usage_error();
      }
      halt_after = argv[++i];
    } else if (arg.size() > 1 && arg.front() == '-') {
      std::cerr << "unknown flag '" << arg << "'\n";
      return usage_error();
    } else {
      positional.emplace_back(arg);
    }
  }

  const auto stages = core::Study::stage_table();
  if (!halt_after.empty() &&
      std::none_of(stages.begin(), stages.end(), [&](const auto& desc) {
        return halt_after == desc.name;
      })) {
    std::cerr << "--halt-after: unknown stage '" << halt_after << "'\n";
    return usage_error();
  }

  core::StudyConfig config;
  config.world.domain_count = 1500;
  if (positional.size() > 1) {
    const auto domains = util::parse_env_unsigned(positional[1]);
    if (!domains) {
      std::cerr << "domain_count must be an unsigned integer, not '"
                << positional[1] << "'\n";
      return usage_error();
    }
    config.world.domain_count = *domains;
  }
  const std::filesystem::path dir =
      !positional.empty() ? positional[0] : "/tmp/cloudscope_paper";
  std::filesystem::create_directories(dir);

  if (const auto seed = util::env_text(util::Knob::kSeed)) {
    if (const auto parsed = util::parse_env_unsigned(*seed))
      config.world.seed = *parsed;
    else
      std::cerr << util::env_malformed(util::Knob::kSeed, *seed,
                                       "an unsigned integer")
                << "\n";
  }
  config.checkpoint_dir = checkpoint_dir;

  std::cout << "Reproducing all tables and figures over "
            << config.world.domain_count << " domains into " << dir.string()
            << " ...\n";
  core::Study study{config};

  if (!halt_after.empty()) {
    for (const auto& desc : stages) {
      study.build_stage(desc.name);
      if (halt_after == desc.name) break;
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

  for (const auto& artifact : core::render_paper(study))
    emit(artifact.file, artifact.text);

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
  if (max_rss_mb > 0 && usage.peak_rss_kb > std::int64_t{max_rss_mb} * 1024) {
    std::cerr << util::fmt(
        "peak RSS {} MB exceeded the --max-rss-mb budget of {} MB\n",
        usage.peak_rss_kb / 1024, max_rss_mb);
    return 3;
  }
  return 0;
}
