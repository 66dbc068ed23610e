// The cs::snap acceptance gate: a study killed partway and resumed from
// its checkpoint directory renders byte-identically to an uninterrupted
// run — at CS_THREADS=1 and CS_THREADS=8, on two seeds. Only the dataset
// persists; loading it has no world side effects, so the resumed run
// rebuilds every other stage in the same order as an uninterrupted one,
// and the launch-heavy tables (8, 11) see the exact same universe.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <string_view>

#include "analysis/snapshot.h"
#include "analysis/widearea.h"
#include "core/report.h"
#include "core/study.h"
#include "exec/config.h"
#include "snap/store.h"

namespace cs::core {
namespace {

StudyConfig small_config(std::uint64_t seed) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = 100;
  config.traffic.total_web_bytes = 2ull * 1024 * 1024;
  config.dataset.lookup_vantages = 2;
  config.dataset.collect_name_servers = false;
  config.campaign_vantages = 6;
  config.campaign_days = 0.25;
  config.isp_vantages = 10;
  return config;
}

/// Renders one artifact per pipeline stage, including the two tables
/// that launch their own EC2 instances during rendering (the sharpest
/// detector of world-state drift after a resume).
std::string render_full(Study& study) {
  std::string out;
  out += render_table1(study.capture());
  out += render_table3(study.cloud_usage());
  out += render_table7(study.patterns());
  out += render_table8(study);
  out += render_table9(study.regions());
  out += render_table11(study);
  out += render_table12(study.zone_study());
  out += render_table14(study.zone_study());
  out += render_table16(study.isp_study());
  out += render_fig9_10(analysis::average_matrix(study.campaign()));
  out += render_fig12(analysis::optimal_k_regions(study.campaign()));
  return out;
}

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path{testing::TempDir()} / name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::set<std::string> files_in(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator{dir})
    names.insert(entry.path().filename().string());
  return names;
}

const std::set<std::string> kOnlyTheDataset = {"dataset.snap"};

class ResumeDeterminism : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ResumeDeterminism, ResumedRunMatchesUninterruptedByteForByte) {
  const std::uint64_t seed = GetParam();
  for (const unsigned threads : {1u, 8u}) {
    exec::ScopedThreads guard{threads};
    const auto config = small_config(seed);

    // A: the uninterrupted reference run, no checkpointing involved.
    std::string expected;
    {
      Study study{config};
      expected = render_full(study);
    }

    // B: runs "killed" right after capture_logs, and right after
    // zone_study (whose build launched carto fleets before the crash) —
    // everything they knew lives only in the checkpoint directory now.
    for (const std::string_view halt : {"capture_logs", "zone_study"}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", CS_THREADS "
                                      << threads << ", halt after " << halt);
      const auto dir = fresh_dir("snap_resume_" + std::to_string(seed) + "_" +
                                 std::to_string(threads) + "_" +
                                 std::string{halt});
      auto ckpt = config;
      ckpt.checkpoint_dir = dir.string();
      {
        Study interrupted{ckpt};
        for (const auto& desc : Study::stage_table()) {
          interrupted.build_stage(desc.name);
          if (desc.name == halt) break;
        }
      }
      EXPECT_EQ(files_in(dir), kOnlyTheDataset);

      // A fresh process-equivalent resumes the dataset from disk and
      // rebuilds the rest; the output must not move by a byte.
      {
        Study resumed{ckpt};
        EXPECT_EQ(render_full(resumed), expected);
        EXPECT_EQ(resumed.stages_resumed(), 1u);
        EXPECT_NE(render_data_quality(resumed).find("; dataset resumed\n"),
                  std::string::npos);
      }

      // C: a finished run leaves nothing more behind, and a third run
      // resumes the same one stage and still renders identically.
      EXPECT_EQ(files_in(dir), kOnlyTheDataset);
      {
        Study full{ckpt};
        EXPECT_EQ(render_full(full), expected);
        EXPECT_EQ(full.stages_resumed(), 1u);
      }
    }
  }
}

// A run killed inside the dataset stage: Study::dataset() must pick up
// "dataset.partial", finish the remaining chunks, land on the
// uninterrupted bytes, and retire the partial once the whole dataset is
// on disk.
TEST_P(ResumeDeterminism, MidDatasetPartialResumesToTheSameBytes) {
  const std::uint64_t seed = GetParam();
  const auto config = small_config(seed);

  std::string expected;
  std::uint64_t hash = 0;
  {
    Study study{config};
    expected = render_full(study);
    hash = study.config_hash();
  }

  // The partial a 20-domain-chunk build checkpoints at its second chunk
  // boundary.
  analysis::DatasetBuilder::Resume partial;
  {
    synth::World world{config.world};
    auto options = config.dataset;
    options.chunk_domains = 20;
    options.on_chunk = [&](const analysis::DatasetBuilder::Resume& so_far) {
      if (so_far.next_domain == 40) partial = so_far;
    };
    analysis::DatasetBuilder{world, options}.build();
  }
  ASSERT_EQ(partial.next_domain, 40u);
  ASSERT_EQ(partial.dataset.domains.size(), 40u);

  const auto dir = fresh_dir("snap_resume_partial_" + std::to_string(seed));
  ASSERT_TRUE(snap::Store(dir, hash).save("dataset.partial", partial));

  auto ckpt = config;
  ckpt.checkpoint_dir = dir.string();
  Study resumed{ckpt};
  EXPECT_EQ(render_full(resumed), expected);
  // The partial was a resume point inside the stage, not a finished one.
  EXPECT_EQ(resumed.stages_resumed(), 0u);
  EXPECT_NE(render_data_quality(resumed).find("; dataset built\n"),
            std::string::npos);
  bool loaded_partial = false;
  for (const auto& event : resumed.checkpoint_store()->events())
    loaded_partial |= event.kind == snap::Event::Kind::kLoaded &&
                      event.stage == "dataset.partial";
  EXPECT_TRUE(loaded_partial);
  EXPECT_EQ(files_in(dir), kOnlyTheDataset);
}

// A run whose full dataset save fails (here: its temp file's path is
// taken by a directory, which stops the open even for root) must keep
// "dataset.partial": retiring it would let a later crash lose the whole
// census. The run itself still renders the uninterrupted bytes.
TEST_P(ResumeDeterminism, FailedFullSaveKeepsThePartial) {
  const std::uint64_t seed = GetParam();
  const auto config = small_config(seed);

  std::string expected;
  {
    Study study{config};
    expected = render_full(study);
  }

  const auto dir = fresh_dir("snap_resume_failed_save_" + std::to_string(seed));
  std::filesystem::create_directories(dir / "dataset.snap.tmp");

  auto ckpt = config;
  ckpt.checkpoint_dir = dir.string();
  ckpt.dataset.chunk_domains = 20;
  {
    Study study{ckpt};
    EXPECT_EQ(render_full(study), expected);
    bool saved_full = false;
    for (const auto& event : study.checkpoint_store()->events())
      saved_full |= event.kind == snap::Event::Kind::kSaved &&
                    event.stage == "dataset";
    EXPECT_FALSE(saved_full);
  }
  EXPECT_EQ(files_in(dir),
            (std::set<std::string>{"dataset.partial.snap",
                                   "dataset.snap.tmp"}));

  // Once the disk is writable again, a resumed run picks up the partial
  // and lands on the same bytes.
  std::filesystem::remove(dir / "dataset.snap.tmp");
  Study resumed{ckpt};
  EXPECT_EQ(render_full(resumed), expected);
  EXPECT_EQ(files_in(dir), kOnlyTheDataset);
}

INSTANTIATE_TEST_SUITE_P(TwoSeeds, ResumeDeterminism,
                         testing::Values(2013ull, 777ull));

}  // namespace
}  // namespace cs::core
