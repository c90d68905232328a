#include "model/format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "model/model.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace cwgl::model {
namespace {

Representative make_rep(std::string name, std::uint64_t index,
                        std::vector<std::pair<int, double>> items) {
  Representative rep;
  rep.job_name = std::move(name);
  rep.training_index = index;
  rep.features.items = std::move(items);
  rep.self_norm = rep.features.norm();
  return rep;
}

ClusterProfile make_profile(std::uint64_t population, double fraction) {
  ClusterProfile p;
  p.population = population;
  p.population_fraction = fraction;
  p.mean_size = 3.5;
  p.median_size = 3.0;
  p.mean_critical_path = 2.5;
  p.median_critical_path = 2.0;
  p.mean_width = 1.5;
  p.median_width = 1.0;
  p.chain_fraction = 0.75;
  p.short_job_fraction = 0.25;
  return p;
}

/// A small but fully populated model exercising every field of the format:
/// two clusters, asymmetric representative counts, iteration weights.
FittedModel tiny_model() {
  FittedModel m;
  m.wl.iterations = 1;
  m.wl.directed = true;
  m.wl.iteration_weights = {1.0, 0.5};
  m.use_type_labels = true;
  m.normalize = true;
  m.conflated = false;
  m.dictionary = {"77", "82", "1:a", "1:b"};
  m.profiles = {make_profile(3, 0.75), make_profile(1, 0.25)};
  m.representatives = {
      {make_rep("j_1", 0, {{0, 1.0}, {2, 2.0}}),
       make_rep("j_2", 1, {{0, 2.0}, {3, 1.0}}),
       make_rep("j_3", 3, {{1, 1.0}})},
      {make_rep("j_4", 2, {{1, 3.0}, {2, 0.5}, {3, 0.5}})},
  };
  m.profiles[0].medoid = 1;
  m.profiles[1].medoid = 0;
  return m;
}

TEST(ModelFormatTest, RoundTripPreservesEveryField) {
  const FittedModel m = tiny_model();
  const std::string bytes = serialize_model(m);
  const FittedModel back = deserialize_model(bytes);
  EXPECT_EQ(back, m);
}

TEST(ModelFormatTest, SerializationIsDeterministic) {
  EXPECT_EQ(serialize_model(tiny_model()), serialize_model(tiny_model()));
}

TEST(ModelFormatTest, SaveLoadRoundTripsThroughDisk) {
  const auto path = std::filesystem::temp_directory_path() /
                    "cwgl_format_test_model.cwgl";
  const FittedModel m = tiny_model();
  save_model(m, path);
  EXPECT_EQ(load_model(path), m);
  std::filesystem::remove(path);
}

TEST(ModelFormatTest, RejectsEveryTruncation) {
  const std::string bytes = serialize_model(tiny_model());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(deserialize_model(bytes.substr(0, len)), ModelError)
        << "prefix of " << len << " bytes accepted";
  }
}

TEST(ModelFormatTest, RejectsTrailingBytes) {
  std::string bytes = serialize_model(tiny_model());
  bytes.push_back('\0');
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

TEST(ModelFormatTest, RejectsBadMagic) {
  std::string bytes = serialize_model(tiny_model());
  bytes[0] = 'X';
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

TEST(ModelFormatTest, RejectsUnsupportedVersion) {
  std::string bytes = serialize_model(tiny_model());
  bytes[kModelMagic.size()] = 3;  // little-endian version field
  EXPECT_THROW(deserialize_model(bytes), ModelError);
  bytes[kModelMagic.size()] = 0;
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

TEST(ModelFormatTest, RejectsPayloadCorruption) {
  const std::string clean = serialize_model(tiny_model());
  // Flip the last payload byte (inside REPS, far from any length field):
  // only the section CRC can catch this.
  std::string bytes = clean;
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

// The satellite requirement: EVERY single-bit corruption anywhere in the
// snapshot must surface as a typed error — CRC mismatch, bounds failure, or
// semantic validation — never silent acceptance and never UB (the ASan/UBSan
// configurations of scripts/check.sh run this very loop under sanitizers).
TEST(ModelFormatTest, EverySingleBitFlipIsCaught) {
  const std::string clean = serialize_model(tiny_model());
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    // One deterministic bit per byte keeps the loop O(size) while still
    // touching every byte of every section.
    const char mask = static_cast<char>(1 << (byte % 8));
    std::string corrupt = clean;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ mask);
    EXPECT_THROW(deserialize_model(corrupt), util::Error)
        << "bit flip at byte " << byte << " went undetected";
  }
}

TEST(ModelFormatTest, RejectsSemanticViolationsAfterDecode) {
  // Byte-level intact, semantically broken: feature id outside the frozen
  // dictionary. serialize_model() itself refuses to encode it.
  FittedModel m = tiny_model();
  m.representatives[0][0].features.items.back().first = 99;
  EXPECT_THROW(serialize_model(m), ModelError);
}

TEST(ModelFormatTest, RejectsInconsistentSelfNorm) {
  FittedModel m = tiny_model();
  m.representatives[0][0].self_norm += 1.0;
  EXPECT_THROW(serialize_model(m), ModelError);
}

TEST(ModelFormatTest, LoadOfMissingFileIsTypedError) {
  EXPECT_THROW(load_model("/nonexistent/cwgl/model.cwgl"), ModelError);
}

TEST(ModelFormatTest, LoadOfDirectoryIsTypedError) {
  EXPECT_THROW(load_model(std::filesystem::temp_directory_path()), ModelError);
}

TEST(ModelFormatTest, PathAndStreamLoadsAgreeAndRejectTruncation) {
  const auto path = std::filesystem::temp_directory_path() /
                    "cwgl_format_test_truncated.cwgl";
  const FittedModel m = tiny_model();
  save_model(m, path);
  {
    std::ifstream in(path, std::ios::binary);
    EXPECT_EQ(load_model(in, path.string()), m);
  }
  EXPECT_EQ(load_model(path), m);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  EXPECT_THROW(load_model(path), ModelError);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// SHPC (shape multiplicity) section — the v2 addition. Corruptions here must
// keep valid CRCs so the decoder reaches the structural/semantic checks the
// section-level CRC cannot provide.
// ---------------------------------------------------------------------------

void put_u32le(std::string& out, std::uint32_t v) {
  for (int s = 0; s < 32; s += 8) {
    out.push_back(static_cast<char>((v >> s) & 0xFFu));
  }
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8) {
    out.push_back(static_cast<char>((v >> s) & 0xFFu));
  }
}

struct SectionSpan {
  std::size_t header;   // offset of the tag field
  std::size_t payload;  // offset of the first payload byte
  std::uint64_t size;   // payload size
};

/// Walks the section headers to locate section `index` (0-based).
SectionSpan locate_section(const std::string& bytes, std::size_t index) {
  std::size_t pos = kModelMagic.size() + 8;  // magic + version + section count
  for (std::size_t i = 0;; ++i) {
    std::uint64_t size = 0;
    for (int b = 0; b < 8; ++b) {
      size |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(bytes[pos + 4 + b]))
              << (8 * b);
    }
    const SectionSpan span{pos, pos + 4 + 8 + 4, size};
    if (i == index) return span;
    pos = span.payload + static_cast<std::size_t>(size);
  }
}

/// Replaces the trailing SHPC section with `payload`, CRC recomputed so only
/// the payload semantics are wrong.
std::string with_replaced_shpc(const std::string& clean,
                               const std::string& payload) {
  const SectionSpan shpc = locate_section(clean, 4);
  std::string out = clean.substr(0, shpc.header);
  out.append("SHPC");
  put_u64le(out, payload.size());
  put_u32le(out, util::crc32(payload));
  out.append(payload);
  return out;
}

/// tiny_model with non-trivial shape multiplicities, as an interned fit
/// produces: 4 representatives standing for 11 training jobs.
FittedModel interned_model() {
  FittedModel m = tiny_model();
  m.representatives[0][0].count = 2;
  m.representatives[0][1].count = 3;
  m.profiles[0].population = 6;  // 2 + 3 + 1
  m.representatives[1][0].count = 5;
  m.profiles[1].population = 5;
  return m;
}

TEST(ModelFormatTest, ShapeCountsRoundTrip) {
  const FittedModel m = interned_model();
  const FittedModel back = deserialize_model(serialize_model(m));
  EXPECT_EQ(back, m);
  EXPECT_EQ(back.training_jobs(), 4u);
  EXPECT_EQ(back.training_weight(), 11u);
}

TEST(ModelFormatTest, LegacyV1SnapshotLoadsWithUnitCounts) {
  // A v1 snapshot is the v2 snapshot minus the SHPC section, with the
  // version and section-count fields rewritten. Every count defaults to 1.
  const FittedModel m = tiny_model();
  std::string bytes = serialize_model(m);
  const SectionSpan shpc = locate_section(bytes, 4);
  bytes.resize(shpc.header);
  bytes[kModelMagic.size()] = 1;      // version (little-endian low byte)
  bytes[kModelMagic.size() + 4] = 4;  // section count
  const FittedModel back = deserialize_model(bytes);
  EXPECT_EQ(back, m);  // tiny_model's counts are all 1 — the v1 default
  EXPECT_EQ(back.training_weight(), back.training_jobs());
}

TEST(ModelFormatTest, RejectsShpcClusterArityMismatch) {
  std::string payload;
  put_u64le(payload, 1);  // claims 1 cluster, REPS decoded 2
  put_u64le(payload, 3);
  for (int i = 0; i < 3; ++i) put_u64le(payload, 1);
  const std::string bytes =
      with_replaced_shpc(serialize_model(tiny_model()), payload);
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

TEST(ModelFormatTest, RejectsShpcRepArityMismatch) {
  std::string payload;
  put_u64le(payload, 2);
  put_u64le(payload, 2);  // cluster 0 has 3 representatives, not 2
  for (int i = 0; i < 2; ++i) put_u64le(payload, 1);
  put_u64le(payload, 1);
  put_u64le(payload, 1);
  const std::string bytes =
      with_replaced_shpc(serialize_model(tiny_model()), payload);
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

TEST(ModelFormatTest, RejectsZeroShapeCount) {
  std::string payload;
  put_u64le(payload, 2);
  put_u64le(payload, 3);
  put_u64le(payload, 0);  // zero multiplicity — semantically impossible
  put_u64le(payload, 1);
  put_u64le(payload, 1);
  put_u64le(payload, 1);
  put_u64le(payload, 1);
  const std::string bytes =
      with_replaced_shpc(serialize_model(tiny_model()), payload);
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

TEST(ModelFormatTest, RejectsCountsThatDoNotSumToPopulation) {
  std::string payload;
  put_u64le(payload, 2);
  put_u64le(payload, 3);
  put_u64le(payload, 2);  // cluster 0 now sums to 4, population says 3
  put_u64le(payload, 1);
  put_u64le(payload, 1);
  put_u64le(payload, 1);
  put_u64le(payload, 1);
  const std::string bytes =
      with_replaced_shpc(serialize_model(tiny_model()), payload);
  EXPECT_THROW(deserialize_model(bytes), ModelError);
}

}  // namespace
}  // namespace cwgl::model
