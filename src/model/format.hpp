#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <string>
#include <string_view>

#include "model/model.hpp"

namespace cwgl::model {

/// The `cwgl-model-v2` binary snapshot format.
///
/// Layout (all integers little-endian, doubles as IEEE-754 bit patterns in a
/// little-endian u64):
///
///   magic   8 bytes  "CWGLMDL1"
///   u32     format version (currently 2)
///   u32     section count (5 in v2, 4 in v1)
///   section x5, in this exact order:
///     u32   tag            FourCC: "CONF", "DICT", "PROF", "REPS", "SHPC"
///     u64   payload size   bytes that follow the crc field
///     u32   crc32          CRC-32 (reflected, poly 0xEDB88320) of payload
///     ...   payload
///
/// CONF: WL config + featurization switches. DICT: the frozen signature
/// dictionary (entry i has feature id i). PROF: per-cluster profiles.
/// REPS: per-cluster representative feature vectors and self-norms.
/// SHPC (new in v2): per-representative shape-multiplicity counts — u64
/// cluster count, then per cluster a u64 representative count followed by
/// that many u64 counts, positionally parallel to REPS. On a direct fit
/// every count is 1; on a shape-interned fit a count is the number of
/// training jobs sharing the representative's DAG shape.
///
/// Loading is strict by default: wrong magic, unsupported version, unknown
/// or out-of-order section tags, truncated payloads, CRC mismatches,
/// trailing bytes (after a section payload or after the last section), and
/// any semantic violation caught by FittedModel::validate() all raise
/// ModelError. A partially written file — e.g. a crash mid-save — can never
/// load as a valid model.
///
/// Versioning rule: the major format version is bumped on any change an old
/// reader cannot skip. This build writes v2 and reads v2 plus the v1 layout
/// (no SHPC section; every count defaults to 1). Any other version is
/// rejected outright; there is no silent best-effort decoding.

inline constexpr std::string_view kModelMagic = "CWGLMDL1";
inline constexpr std::uint32_t kModelFormatVersion = 2;
inline constexpr std::uint32_t kModelFormatVersionLegacy = 1;

/// Serializes a validated model to its byte representation. Runs
/// `m.validate()` first so an invalid model is never encoded.
std::string serialize_model(const FittedModel& m);

/// Per-section payload byte sizes of a snapshot — what `cwgl fit --json`
/// reports so model growth (full-trace fits especially) is observable.
/// `total` is the exact serialize_model() size: preamble + five section
/// headers + the payloads.
struct SectionSizes {
  std::uint64_t conf = 0;
  std::uint64_t dict = 0;
  std::uint64_t prof = 0;
  std::uint64_t reps = 0;
  std::uint64_t shpc = 0;
  std::uint64_t total = 0;
};

/// Computes the encoded payload sizes of `m` without keeping the bytes.
/// Does not validate; sizes are well-defined for any structurally sound
/// model.
SectionSizes section_sizes(const FittedModel& m);

/// Strictly decodes bytes produced by serialize_model(). `origin` names the
/// source (a path, "<memory>", ...) in error messages. Throws ModelError on
/// any structural or semantic defect; never exhibits UB on corrupt input —
/// every read is bounds-checked against the buffer.
FittedModel deserialize_model(std::string_view bytes,
                              std::string_view origin = "<memory>");

/// Writes the snapshot to `path` crash-safely: the bytes land in a
/// `path + ".tmp"` sibling first and are atomically renamed over `path`
/// only once fully written, so a crash mid-write leaves any previous
/// snapshot at `path` intact (the property automated hot reload relies
/// on). Failpoint site "model.write" fires after roughly half the bytes
/// are on disk, modeling that crash; the torn `.tmp` it leaves behind is
/// additionally guaranteed to be rejected by load_model(). Throws
/// ModelError when the file cannot be created, fully written, or renamed.
void save_model(const FittedModel& m, const std::filesystem::path& path);

/// Reads a snapshot from `path` into one buffer of exactly the file's size
/// and strictly validates it (failpoint site "model.read" models an I/O
/// fault at open time). Throws ModelError when the file cannot be opened,
/// sized or fully read.
FittedModel load_model(const std::filesystem::path& path);

/// Stream variant of load_model() for already-open sources.
FittedModel load_model(std::istream& in, std::string_view origin = "<stream>");

}  // namespace cwgl::model
