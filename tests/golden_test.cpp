// Cross-commit behaviour lock: every paper artifact (tables 1-16 and
// figures 3-12, exactly as paper_reproduction writes them) is rendered at
// two small pinned shapes and its FNV-1a digest compared against the
// committed GOLDEN.json. The determinism suites compare two runs of the
// same build; this one compares against the code that wrote the file, so
// a refactor that moves every artifact the same way still fails here.
//
// A mismatch names the artifact and prints its new GOLDEN.json line. An
// intended output change lands by pasting those lines into the file, as
// a reviewed diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "core/report.h"
#include "core/study.h"
#include "snap/codec.h"
#include "util/format.h"
#include "util/json.h"

namespace cs::core {
namespace {

/// Every pinned shape is 300 domains; the parameter is the world seed.
constexpr std::size_t kDomains = 300;

const util::JsonValue& golden() {
  static const util::JsonValue value = [] {
    std::ifstream in{CS_GOLDEN_FILE};
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = util::parse_json(text.str());
    return parsed ? std::move(*parsed) : util::JsonValue{};
  }();
  return value;
}

class Golden : public testing::TestWithParam<std::uint64_t> {};

TEST_P(Golden, PaperArtifactDigestsMatchTheCommittedFile) {
  ASSERT_TRUE(golden().is_object())
      << CS_GOLDEN_FILE << " is not a JSON object";
  const std::uint64_t seed = GetParam();
  StudyConfig config;
  config.world.seed = seed;
  config.world.domain_count = kDomains;
  Study study{config};

  const auto artifacts = render_paper(study);
  EXPECT_EQ(artifacts.size(), 25u);
  for (const auto& artifact : artifacts) {
    const auto key = util::fmt("{}/{}/{}", seed, kDomains, artifact.file);
    const auto digest = util::fmt(
        "{:016x}",
        snap::fnv1a(std::span{
            reinterpret_cast<const std::uint8_t*>(artifact.text.data()),
            artifact.text.size()}));
    const auto* expected = golden().find(key);
    EXPECT_TRUE(expected && expected->text_or("") == digest)
        << key << " changed; new line:\n  \"" << key << "\": \"" << digest
        << "\",";
  }
}

INSTANTIATE_TEST_SUITE_P(PinnedShapes, Golden,
                         testing::Values(2013ull, 5077ull));

}  // namespace
}  // namespace cs::core
