// cs::snap codec coverage: the dataset (whole and mid-build) must
// round-trip through its binary codec byte-identically, and every way a
// snapshot file can be damaged — truncation, bit flips, foreign versions,
// a different study configuration — must be rejected with a
// SnapshotError, never a crash or a silent partial decode.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "analysis/dataset.h"
#include "core/study.h"
#include "exec/config.h"
#include "fault/fault.h"
#include "analysis/snapshot.h"
#include "snap/codec.h"
#include "snap/store.h"
#include "synth/world.h"

namespace cs::snap {
namespace {

core::StudyConfig small_config() {
  core::StudyConfig config;
  config.world.seed = 2013;
  config.world.domain_count = 100;
  config.dataset.lookup_vantages = 2;
  // Keep NS collection on: it populates the dataset's name-server and
  // AXFR fields, so the round-trip exercises every codec branch.
  config.dataset.collect_name_servers = true;
  return config;
}

/// One shared study for all round-trip tests; artifacts build lazily.
core::Study& shared_study() {
  static core::Study study{small_config()};
  return study;
}

template <typename T>
std::vector<std::uint8_t> encoded(const T& value) {
  Writer w;
  encode_artifact(w, value);
  return std::move(w).take();
}

/// The codec contract: encode(decode(encode(a))) == encode(a), and the
/// decoder consumes the payload exactly.
template <typename T>
void expect_roundtrip(const T& value) {
  const auto first = encoded(value);
  Reader r{first};
  T decoded{};
  decode_artifact(r, decoded);
  r.require_done();
  EXPECT_EQ(first, encoded(decoded));
}

TEST(ArtifactRoundTrip, Dataset) { expect_roundtrip(shared_study().dataset()); }

TEST(ArtifactRoundTrip, EmptyArtifactsRoundTripToo) {
  // A degraded dataset stage substitutes a default-constructed artifact;
  // that must be encodable as well, and so must an empty resume point.
  expect_roundtrip(analysis::AlexaDataset{});
  expect_roundtrip(analysis::DatasetBuilder::Resume{});
}

// ---------------------------------------------------------------------
// Framing: header, checksum, and the rejection paths.

std::vector<std::uint8_t> sample_payload() {
  Writer w;
  w.str("payload with some structure");
  w.u64(0xDEADBEEFCAFEF00DULL);
  w.f64(3.25);
  return std::move(w).take();
}

constexpr std::uint64_t kHash = 0x1122334455667788ULL;

TEST(Framing, RoundTripReturnsThePayload) {
  const auto payload = sample_payload();
  const auto file = frame_snapshot("dataset", kHash, payload);
  EXPECT_EQ(unframe_snapshot(file, "dataset", kHash), payload);
}

TEST(Framing, EmptyPayloadRoundTrips) {
  const auto file = frame_snapshot("dataset", kHash, {});
  EXPECT_TRUE(unframe_snapshot(file, "dataset", kHash).empty());
}

TEST(Framing, EveryTruncationLengthIsRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  for (std::size_t len = 0; len < file.size(); ++len) {
    EXPECT_THROW(unframe_snapshot(std::span{file}.first(len), "dataset",
                                  kHash),
                 SnapshotError)
        << "prefix length " << len;
  }
}

TEST(Framing, BitFlipsAnywhereAreRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  // Reuse the fault module's corruption streams to pick deterministic
  // flip sites; a single flipped bit must fail the checksum (or, when the
  // trailer itself is hit, the comparison against the recomputed hash).
  fault::Spec spec;
  spec.corrupt = 1.0;
  spec.seed = 7;
  const fault::Plan plan{spec};
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    auto rng = plan.stream(fault::Kind::kCorrupt, trial);
    auto copy = file;
    const auto offset = rng.next_below(copy.size());
    copy[offset] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    EXPECT_THROW(unframe_snapshot(copy, "dataset", kHash), SnapshotError)
        << "flip at offset " << offset;
  }
}

/// Rewrites the trailer so the checksum holds again after tampering —
/// isolating the *semantic* rejection paths from the checksum one.
std::vector<std::uint8_t> refresh_checksum(std::vector<std::uint8_t> file) {
  const auto body = std::span{file}.first(file.size() - 8);
  const auto checksum = fnv1a(body);
  for (int i = 0; i < 8; ++i)
    file[file.size() - 8 + i] =
        static_cast<std::uint8_t>(checksum >> (8 * i));
  return file;
}

std::string rejection_reason(std::span<const std::uint8_t> file,
                             std::string_view stage, std::uint64_t hash) {
  try {
    unframe_snapshot(file, stage, hash);
  } catch (const SnapshotError& e) {
    return e.what();
  }
  return {};
}

TEST(Framing, ForeignMagicIsRejected) {
  auto file = frame_snapshot("dataset", kHash, sample_payload());
  file[0] = 'X';
  file = refresh_checksum(std::move(file));
  EXPECT_NE(rejection_reason(file, "dataset", kHash).find("magic"),
            std::string::npos);
}

TEST(Framing, WrongFormatVersionIsRejected) {
  auto file = frame_snapshot("dataset", kHash, sample_payload());
  file[4] = static_cast<std::uint8_t>(kFormatVersion + 1);  // version lives
  file = refresh_checksum(std::move(file));                 // after "CSNP"
  EXPECT_NE(rejection_reason(file, "dataset", kHash).find("version"),
            std::string::npos);
}

TEST(Framing, MismatchedConfigHashIsRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  EXPECT_NE(rejection_reason(file, "dataset", kHash ^ 1).find("config hash"),
            std::string::npos);
}

TEST(Framing, WrongStageNameIsRejected) {
  const auto file = frame_snapshot("dataset", kHash, sample_payload());
  EXPECT_NE(rejection_reason(file, "capture", kHash).find("stage"),
            std::string::npos);
}

TEST(Framing, TrailingGarbageIsRejected) {
  auto file = frame_snapshot("dataset", kHash, sample_payload());
  file.insert(file.end() - 8, {0x00, 0x01, 0x02});  // extra bytes in body
  file = refresh_checksum(std::move(file));
  EXPECT_THROW(unframe_snapshot(file, "dataset", kHash), SnapshotError);
}

TEST(Reader, CorruptedCountCannotRequestAbsurdAllocations) {
  // A corrupted length field must be caught by the OOM guard, not handed
  // to vector::reserve.
  Writer w;
  w.count(1ull << 40);
  Reader r{w.bytes()};
  EXPECT_THROW(r.count(sizeof(double)), SnapshotError);
}

TEST(Reader, BooleanRejectsNonCanonicalBytes) {
  Writer w;
  w.u8(2);
  Reader r{w.bytes()};
  EXPECT_THROW(r.boolean(), SnapshotError);
}

// ---------------------------------------------------------------------
// Store: atomic save/load plus the event ledger.

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = std::filesystem::path{testing::TempDir()} / name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool has_tmp_files(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::directory_iterator{dir})
    if (entry.path().extension() == ".tmp") return true;
  return false;
}

TEST(Store, SaveThenLoadRoundTrips) {
  const auto dir = fresh_dir("snap_store_roundtrip");
  Store store{dir, kHash};
  const auto& dataset = shared_study().dataset();
  ASSERT_TRUE(store.save("dataset", dataset));
  EXPECT_TRUE(std::filesystem::exists(store.path_for("dataset")));
  EXPECT_FALSE(has_tmp_files(dir));

  Store reopened{dir, kHash};
  const auto loaded = reopened.load<analysis::AlexaDataset>("dataset");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(encoded(*loaded), encoded(dataset));
  ASSERT_FALSE(reopened.events().empty());
  EXPECT_EQ(reopened.events().back().kind, Event::Kind::kLoaded);
}

TEST(Store, MissingFileIsAMissEvent) {
  const auto dir = fresh_dir("snap_store_missing");
  Store store{dir, kHash};
  EXPECT_FALSE(store.load<analysis::AlexaDataset>("dataset").has_value());
  ASSERT_FALSE(store.events().empty());
  EXPECT_EQ(store.events().back().kind, Event::Kind::kMissing);
}

TEST(Store, CorruptedFileIsRejectedNotCrashed) {
  const auto dir = fresh_dir("snap_store_corrupt");
  Store store{dir, kHash};
  ASSERT_TRUE(store.save("dataset", shared_study().dataset()));

  // Flip one byte in the middle of the file on disk.
  const auto path = store.path_for("dataset");
  std::fstream f{path, std::ios::in | std::ios::out | std::ios::binary};
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekp(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(size / 2));
  f.read(&byte, 1);
  byte ^= 0x10;
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.write(&byte, 1);
  f.close();

  Store reopened{dir, kHash};
  EXPECT_FALSE(reopened.load<analysis::AlexaDataset>("dataset").has_value());
  ASSERT_FALSE(reopened.events().empty());
  EXPECT_EQ(reopened.events().back().kind, Event::Kind::kRejected);
  EXPECT_FALSE(reopened.events().back().detail.empty());
}

// ---------------------------------------------------------------------
// The dataset row codec under damage: a payload that is cut short or
// flipped below the framing checksum must die as a SnapshotError.

/// A deliberately small dataset: the truncation sweep below decodes every
/// prefix of its payload, which is quadratic in payload size.
analysis::AlexaDataset tiny_dataset() {
  synth::WorldConfig config;
  config.seed = 2013;
  config.domain_count = 12;
  synth::World world{config};
  analysis::DatasetBuilder builder{world, {.lookup_vantages = 1}};
  return builder.build();
}

/// The resume point a chunked build would checkpoint after its last
/// domain.
analysis::DatasetBuilder::Resume tiny_partial() {
  analysis::DatasetBuilder::Resume partial;
  partial.dataset = tiny_dataset();
  partial.next_domain = partial.dataset.domains.size();
  return partial;
}

TEST(DatasetCodec, EveryPayloadTruncationIsRejected) {
  const auto payload = encoded(tiny_dataset());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Reader r{std::span{payload}.first(len)};
    analysis::AlexaDataset dataset;
    EXPECT_THROW(decode_artifact(r, dataset), SnapshotError)
        << "prefix length " << len;
  }
}

TEST(DatasetCodec, PayloadBitFlipsNeverEscapeAsCrashes) {
  // Below the framing checksum the decoder's own validation (count
  // bounds, name re-parse, index and rcode ranges, canonical booleans,
  // rdata tags) must contain arbitrary corruption: every flip either
  // still decodes to a structurally valid dataset or throws
  // SnapshotError — nothing else.
  const auto payload = encoded(tiny_dataset());
  fault::Spec spec;
  spec.corrupt = 1.0;
  spec.seed = 11;
  const fault::Plan plan{spec};
  for (std::uint64_t trial = 0; trial < 128; ++trial) {
    auto rng = plan.stream(fault::Kind::kCorrupt, trial);
    auto copy = payload;
    const auto offset = rng.next_below(copy.size());
    copy[offset] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    Reader r{copy};
    analysis::AlexaDataset dataset;
    try {
      decode_artifact(r, dataset);
      r.require_done();
    } catch (const SnapshotError&) {
      // The acceptable failure mode.
    }
  }
}

/// Hand-encodes a dataset with no cloud subdomains and one domain, so a
/// test can plant exactly one bad field.
struct OneDomain {
  std::string label = "example";
  std::uint8_t axfr = 0;
  std::vector<std::uint64_t> cloud_subdomains{};
  std::vector<std::pair<std::uint8_t, std::uint64_t>> failed_lookups{};
};

std::vector<std::uint8_t> one_domain_payload(const OneDomain& d) {
  Writer w;
  w.count(0);  // cloud subdomains
  w.count(1);  // domains
  w.count(1);  // name labels
  w.str(d.label);
  w.u64(1);  // rank
  w.u8(d.axfr);
  w.u64(0);  // subdomains probed
  w.count(d.cloud_subdomains.size());
  for (const auto index : d.cloud_subdomains) w.u64(index);
  w.u64(0);  // other-only subdomains
  w.count(d.failed_lookups.size());
  for (const auto& [rcode, count] : d.failed_lookups) {
    w.u8(rcode);
    w.u64(count);
  }
  w.u64(0);  // unresolved subdomains
  w.u64(0);  // queries spent
  return std::move(w).take();
}

bool decodes(const std::vector<std::uint8_t>& payload) {
  Reader r{payload};
  analysis::AlexaDataset dataset;
  try {
    decode_artifact(r, dataset);
    r.require_done();
  } catch (const SnapshotError&) {
    return false;
  }
  return true;
}

TEST(DatasetCodec, UnparsableStoredNameIsASnapshotError) {
  EXPECT_TRUE(decodes(one_domain_payload({})));
  // No dns::Name accepts an empty label; the decode must reject it
  // instead of materialising nonsense.
  EXPECT_FALSE(decodes(one_domain_payload({.label = ""})));
  EXPECT_FALSE(decodes(one_domain_payload({.label = "bad..name"})));
}

TEST(DatasetCodec, OutOfRangeFieldsAreSnapshotErrors) {
  // A cloud-subdomain index past the subdomain rows.
  EXPECT_FALSE(decodes(one_domain_payload({.cloud_subdomains = {0}})));
  // An rcode past the six the failed-lookup ledger models.
  EXPECT_TRUE(decodes(one_domain_payload({.failed_lookups = {{5, 3}}})));
  EXPECT_FALSE(decodes(one_domain_payload({.failed_lookups = {{6, 3}}})));
  // A boolean that is neither 0 nor 1.
  EXPECT_TRUE(decodes(one_domain_payload({.axfr = 1})));
  EXPECT_FALSE(decodes(one_domain_payload({.axfr = 2})));
}

// S4 determinism pin: the dataset builder fans out per-domain probes, so
// the row order inside the artifact (and every cloud-subdomain index)
// depends on reduction order — which must be the rank order at every
// thread count.
TEST(DatasetCodec, ArtifactBytesIdenticalAcrossThreadCounts) {
  synth::WorldConfig config;
  config.seed = 2013;
  config.domain_count = 40;
  synth::World world{config};
  std::vector<std::uint8_t> single;
  {
    exec::ScopedThreads guard{1};
    analysis::DatasetBuilder builder{world, {.lookup_vantages = 2}};
    single = encoded(builder.build());
  }
  std::vector<std::uint8_t> pooled;
  {
    exec::ScopedThreads guard{8};
    analysis::DatasetBuilder builder{world, {.lookup_vantages = 2}};
    pooled = encoded(builder.build());
  }
  EXPECT_EQ(single, pooled);
}

// ---------------------------------------------------------------------
// Partial (mid-stage) dataset checkpoints.

TEST(PartialDataset, RoundTripsWithItsResumePoint) {
  expect_roundtrip(tiny_partial());
}

TEST(PartialDataset, ResumePointMustMatchItsDomains) {
  // A checkpoint always holds exactly the domains probed before
  // next_domain; any disagreement means the file does not describe a
  // resumable state and must be rejected.
  auto partial = tiny_partial();
  partial.next_domain += 1;
  const auto payload = encoded(partial);
  Reader r{payload};
  analysis::DatasetBuilder::Resume decoded;
  EXPECT_THROW(decode_artifact(r, decoded), SnapshotError);
}

TEST(Store, RemoveRetiresASnapshot) {
  const auto dir = fresh_dir("snap_store_remove");
  Store store{dir, kHash};
  ASSERT_TRUE(store.save("dataset.partial", tiny_partial()));
  EXPECT_TRUE(std::filesystem::exists(store.path_for("dataset.partial")));
  EXPECT_TRUE(store.remove("dataset.partial"));
  EXPECT_FALSE(std::filesystem::exists(store.path_for("dataset.partial")));
  // Removing an absent stage is a no-op, not an error path.
  EXPECT_FALSE(store.remove("dataset.partial"));
}

TEST(Store, DifferentConfigHashRejectsTheSnapshot) {
  const auto dir = fresh_dir("snap_store_confighash");
  {
    Store store{dir, kHash};
    ASSERT_TRUE(store.save("dataset", shared_study().dataset()));
  }
  Store other{dir, kHash ^ 0xFF};
  EXPECT_FALSE(other.load<analysis::AlexaDataset>("dataset").has_value());
  EXPECT_EQ(other.events().back().kind, Event::Kind::kRejected);
  EXPECT_NE(other.events().back().detail.find("config hash"),
            std::string::npos);
}

}  // namespace
}  // namespace cs::snap
