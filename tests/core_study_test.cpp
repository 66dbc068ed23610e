#include "core/study.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "core/report.h"

namespace cs::core {
namespace {

/// End-to-end integration: one Study drives the complete pipeline.
class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StudyConfig config;
    config.world.domain_count = 220;
    config.traffic.total_web_bytes = 4ull * 1024 * 1024;
    config.dataset.lookup_vantages = 2;
    config.campaign_vantages = 8;
    config.campaign_days = 0.25;
    config.isp_vantages = 40;
    study_ = new Study{config};
  }
  static void TearDownTestSuite() { delete study_; }

  static Study* study_;
};

Study* StudyTest::study_ = nullptr;

TEST_F(StudyTest, StagesAreCachedAcrossCalls) {
  const auto& a = study_->dataset();
  const auto& b = study_->dataset();
  EXPECT_EQ(&a, &b);
  const auto& pa = study_->patterns();
  const auto& pb = study_->patterns();
  EXPECT_EQ(&pa, &pb);
}

TEST_F(StudyTest, RankMapKeyedByDomain) {
  const auto& ranks = study_->rank_map();
  EXPECT_EQ(ranks.size(), 220u);
  EXPECT_EQ(ranks.at("pinterest.com"), 35u);
}

TEST_F(StudyTest, AllTableRenderersProduceOutput) {
  EXPECT_NE(render_table1(study_->capture()).find("EC2"), std::string::npos);
  EXPECT_NE(render_table2(study_->capture()).find("HTTPS"),
            std::string::npos);
  EXPECT_NE(render_table3(study_->cloud_usage()).find("EC2 + Other"),
            std::string::npos);
  EXPECT_NE(render_table4(study_->cloud_usage()).find("Rank"),
            std::string::npos);
  EXPECT_NE(render_table5(study_->capture()).find("dropbox.com"),
            std::string::npos);
  EXPECT_NE(render_table6(study_->capture()).find("text/"),
            std::string::npos);
  EXPECT_NE(render_table7(study_->patterns()).find("Heroku"),
            std::string::npos);
  EXPECT_NE(render_table8(*study_).find("Domain"), std::string::npos);
  EXPECT_NE(render_table9(study_->regions()).find("ec2.us-east-1"),
            std::string::npos);
  EXPECT_NE(render_table10(*study_).find("k=1"), std::string::npos);
}

TEST_F(StudyTest, ZoneAndIspRenderersProduceOutput) {
  EXPECT_NE(render_table12(study_->zone_study()).find("% unk"),
            std::string::npos);
  EXPECT_NE(render_table13(study_->zone_study()).find("error rate"),
            std::string::npos);
  EXPECT_NE(render_table14(study_->zone_study()).find("# Subdom"),
            std::string::npos);
  EXPECT_NE(render_table15(*study_).find("# zones"), std::string::npos);
  EXPECT_NE(render_table16(study_->isp_study()).find("AZ1"),
            std::string::npos);
}

TEST_F(StudyTest, FigureRenderersProduceSeries) {
  EXPECT_NE(render_fig3(study_->capture()).find("quantile"),
            std::string::npos);
  EXPECT_NE(render_fig4(study_->patterns()).find("VM instances"),
            std::string::npos);
  EXPECT_NE(render_fig5(study_->patterns()).find("DNS servers"),
            std::string::npos);
  EXPECT_NE(render_fig6(study_->regions()).find("EC2 subdomains"),
            std::string::npos);
  EXPECT_NE(render_fig8(study_->zone_study()).find("one zone"),
            std::string::npos);
  const auto averages = analysis::average_matrix(study_->campaign());
  EXPECT_NE(render_fig9_10(averages).find("Figure 9"), std::string::npos);
  const auto k = analysis::optimal_k_regions(study_->campaign());
  EXPECT_NE(render_fig12(k).find("best regions"), std::string::npos);
}

TEST_F(StudyTest, Table11ExperimentRuns) {
  const auto table = render_table11(*study_);
  EXPECT_NE(table.find("t1.micro"), std::string::npos);
  EXPECT_NE(table.find("m3.2xlarge"), std::string::npos);
}

TEST_F(StudyTest, CampaignShapeMatchesConfig) {
  const auto& campaign = study_->campaign();
  EXPECT_EQ(campaign.vantages.size(), 8u);
  EXPECT_EQ(campaign.region_names.size(), 8u);
  EXPECT_EQ(campaign.rounds(), 24u);
}

TEST_F(StudyTest, HeadlineNumbersInPaperBands) {
  // The cross-cutting sanity panel: every headline statistic the paper
  // reports lands in a defensible band on the default small universe.
  const auto& usage = study_->cloud_usage();
  EXPECT_GT(usage.domains.total, 20u);

  const auto& regions = study_->regions();
  EXPECT_GT(regions.ec2_single_region_fraction, 0.9);

  const auto& capture = study_->capture();
  EXPECT_GT(capture.top_ec2_domains.at(0).percent_of_web, 50.0);

  const auto& zones = study_->zone_study();
  EXPECT_GT(zones.combined_identified_fraction, 0.5);
}

// The checkpoint binds to what shapes the dataset and nothing else:
// rescaling the capture, campaign or ISP study must not discard a census.
TEST(StudyConfigHash, CoversTheDatasetInputsOnly) {
  StudyConfig base;
  base.world.domain_count = 40;
  const auto hash = [](const StudyConfig& config) {
    return Study{config}.config_hash();
  };
  const auto reference = hash(base);

  auto rescaled = base;
  rescaled.traffic.total_web_bytes /= 2;
  rescaled.campaign_vantages = 3;
  rescaled.campaign_days = 0.5;
  rescaled.isp_vantages = 7;
  rescaled.dataset.chunk_domains = 7;
  EXPECT_EQ(hash(rescaled), reference);

  auto reseeded = base;
  reseeded.world.seed += 1;
  EXPECT_NE(hash(reseeded), reference);
  auto fewer_vantages = base;
  fewer_vantages.dataset.lookup_vantages = 2;
  EXPECT_NE(hash(fewer_vantages), reference);
}

struct ChunkHookFailure {};

std::vector<std::uint8_t> dataset_bytes(const analysis::AlexaDataset& data) {
  snap::Writer w;
  snap::encode_artifact(w, data);
  return std::move(w).take();
}

// A stage runs once: an exception from its build reaches the caller
// unchanged, after a single attempt, and leaves the stage unbuilt, so the
// next call builds it from scratch. The throw comes from the dataset's
// chunk hook, which Study leaves in place when no checkpoint store exists.
TEST(StudyStage, FailedBuildPropagatesOnceAndLeavesTheStageUnbuilt) {
  StudyConfig config;
  config.world.domain_count = 40;
  config.dataset.lookup_vantages = 2;
  config.dataset.chunk_domains = 5;
  bool armed = true;
  int armed_calls = 0;
  config.dataset.on_chunk = [&](const analysis::DatasetBuilder::Resume&) {
    if (!armed) return;
    ++armed_calls;
    throw ChunkHookFailure{};
  };
  Study study{config};
  ASSERT_FALSE(study.checkpoint_store().has_value());

  EXPECT_THROW(study.dataset(), ChunkHookFailure);
  EXPECT_EQ(armed_calls, 1);

  armed = false;
  const auto rebuilt = dataset_bytes(study.dataset());
  EXPECT_EQ(armed_calls, 1);

  config.dataset.on_chunk = nullptr;
  Study fresh{config};
  EXPECT_EQ(rebuilt, dataset_bytes(fresh.dataset()));
}

}  // namespace
}  // namespace cs::core
