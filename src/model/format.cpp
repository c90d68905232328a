#include "model/format.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <utility>

#include "util/crc32.hpp"
#include "util/failpoint.hpp"

namespace cwgl::model {

namespace {

// ---------------------------------------------------------------------------
// Encoding. Integers are written byte by byte, least significant first, so
// the on-disk format is identical on every host regardless of endianness or
// struct layout — no memcpy of whole structs, ever.
// ---------------------------------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFFu));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kTagConf = fourcc('C', 'O', 'N', 'F');
constexpr std::uint32_t kTagDict = fourcc('D', 'I', 'C', 'T');
constexpr std::uint32_t kTagProf = fourcc('P', 'R', 'O', 'F');
constexpr std::uint32_t kTagReps = fourcc('R', 'E', 'P', 'S');
constexpr std::uint32_t kTagShpc = fourcc('S', 'H', 'P', 'C');
constexpr std::uint32_t kSectionOrder[] = {kTagConf, kTagDict, kTagProf,
                                           kTagReps, kTagShpc};
// v1 snapshots predate shape interning and carry no SHPC section.
constexpr std::uint32_t kSectionOrderLegacy[] = {kTagConf, kTagDict, kTagProf,
                                                 kTagReps};

void append_section(std::string& out, std::uint32_t tag,
                    const std::string& payload) {
  put_u32(out, tag);
  put_u64(out, payload.size());
  put_u32(out, util::crc32(payload));
  out.append(payload);
}

std::string encode_conf(const FittedModel& m) {
  std::string p;
  put_u32(p, static_cast<std::uint32_t>(m.wl.iterations));
  put_u8(p, m.wl.directed ? 1 : 0);
  put_u8(p, m.use_type_labels ? 1 : 0);
  put_u8(p, m.normalize ? 1 : 0);
  put_u8(p, m.conflated ? 1 : 0);
  put_u32(p, static_cast<std::uint32_t>(m.wl.iteration_weights.size()));
  for (double w : m.wl.iteration_weights) put_f64(p, w);
  return p;
}

std::string encode_dict(const FittedModel& m) {
  std::string p;
  put_u64(p, m.dictionary.size());
  for (const std::string& signature : m.dictionary) put_string(p, signature);
  return p;
}

std::string encode_prof(const FittedModel& m) {
  std::string p;
  put_u64(p, m.profiles.size());
  for (const ClusterProfile& prof : m.profiles) {
    put_u64(p, prof.population);
    put_f64(p, prof.population_fraction);
    put_f64(p, prof.mean_size);
    put_f64(p, prof.median_size);
    put_f64(p, prof.mean_critical_path);
    put_f64(p, prof.median_critical_path);
    put_f64(p, prof.mean_width);
    put_f64(p, prof.median_width);
    put_f64(p, prof.chain_fraction);
    put_f64(p, prof.short_job_fraction);
    put_u64(p, prof.medoid);
  }
  return p;
}

std::string encode_reps(const FittedModel& m) {
  std::string p;
  put_u64(p, m.representatives.size());
  for (const auto& cluster : m.representatives) {
    put_u64(p, cluster.size());
    for (const Representative& rep : cluster) {
      put_string(p, rep.job_name);
      put_u64(p, rep.training_index);
      put_f64(p, rep.self_norm);
      put_u64(p, rep.features.items.size());
      for (const auto& [id, value] : rep.features.items) {
        put_u32(p, static_cast<std::uint32_t>(id));
        put_f64(p, value);
      }
    }
  }
  return p;
}

std::string encode_shpc(const FittedModel& m) {
  std::string p;
  put_u64(p, m.representatives.size());
  for (const auto& cluster : m.representatives) {
    put_u64(p, cluster.size());
    for (const Representative& rep : cluster) put_u64(p, rep.count);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Decoding. Every read goes through this bounds-checked cursor; corrupt
// sizes can therefore only ever produce a ModelError, never an out-of-range
// access. Element counts are never trusted for up-front allocation beyond
// what the remaining bytes could possibly hold.
// ---------------------------------------------------------------------------

class Cursor {
 public:
  Cursor(std::string_view data, std::string_view origin)
      : data_(data), origin_(origin) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw ModelError("model '" + std::string(origin_) + "': " + what +
                     " (offset " + std::to_string(pos_) + ")");
  }

  std::string_view bytes(std::size_t n, const char* what) {
    if (n > remaining()) {
      fail(std::string("truncated ") + what + ": need " + std::to_string(n) +
           " bytes, have " + std::to_string(remaining()));
    }
    std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::uint8_t u8(const char* what) {
    return static_cast<std::uint8_t>(bytes(1, what)[0]);
  }

  std::uint32_t u32(const char* what) {
    std::string_view b = bytes(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i]))
           << (8 * i);
    }
    return v;
  }

  std::uint64_t u64(const char* what) {
    std::string_view b = bytes(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
           << (8 * i);
    }
    return v;
  }

  double f64(const char* what) { return std::bit_cast<double>(u64(what)); }

  std::string str(const char* what) {
    const std::uint32_t n = u32(what);
    return std::string(bytes(n, what));
  }

  bool boolean(const char* what) {
    const std::uint8_t v = u8(what);
    if (v > 1) fail(std::string("non-boolean byte in ") + what);
    return v == 1;
  }

  /// A count bounds-checked against the bytes that could actually hold that
  /// many elements of at least `min_element_size` bytes each — rejects a
  /// corrupt length before any allocation sized by it.
  std::size_t count(const char* what, std::size_t min_element_size) {
    const std::uint64_t n = u64(what);
    if (min_element_size > 0 && n > remaining() / min_element_size) {
      fail(std::string("implausible ") + what + " count " + std::to_string(n));
    }
    return static_cast<std::size_t>(n);
  }

 private:
  std::string_view data_;
  std::string_view origin_;
  std::size_t pos_ = 0;
};

void decode_conf(Cursor& c, FittedModel& m) {
  m.wl.iterations = static_cast<int>(c.u32("wl iterations"));
  m.wl.directed = c.boolean("directed flag");
  m.use_type_labels = c.boolean("type-label flag");
  m.normalize = c.boolean("normalize flag");
  m.conflated = c.boolean("conflated flag");
  const std::uint32_t weights = c.u32("iteration weight count");
  if (weights > c.remaining() / 8) c.fail("implausible iteration weight count");
  m.wl.iteration_weights.reserve(weights);
  for (std::uint32_t i = 0; i < weights; ++i) {
    m.wl.iteration_weights.push_back(c.f64("iteration weight"));
  }
}

void decode_dict(Cursor& c, FittedModel& m) {
  const std::size_t n = c.count("dictionary", 4);
  m.dictionary.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.dictionary.push_back(c.str("dictionary signature"));
  }
}

void decode_prof(Cursor& c, FittedModel& m) {
  const std::size_t n = c.count("profile", 11 * 8);
  m.profiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ClusterProfile p;
    p.population = c.u64("population");
    p.population_fraction = c.f64("population fraction");
    p.mean_size = c.f64("mean size");
    p.median_size = c.f64("median size");
    p.mean_critical_path = c.f64("mean critical path");
    p.median_critical_path = c.f64("median critical path");
    p.mean_width = c.f64("mean width");
    p.median_width = c.f64("median width");
    p.chain_fraction = c.f64("chain fraction");
    p.short_job_fraction = c.f64("short-job fraction");
    p.medoid = c.u64("medoid index");
    m.profiles.push_back(p);
  }
}

void decode_reps(Cursor& c, FittedModel& m) {
  const std::size_t clusters = c.count("cluster", 8);
  m.representatives.reserve(clusters);
  for (std::size_t ci = 0; ci < clusters; ++ci) {
    const std::size_t reps = c.count("representative", 4 + 8 + 8 + 8);
    std::vector<Representative> cluster;
    cluster.reserve(reps);
    for (std::size_t ri = 0; ri < reps; ++ri) {
      Representative rep;
      rep.job_name = c.str("job name");
      rep.training_index = c.u64("training index");
      rep.self_norm = c.f64("self norm");
      const std::size_t nnz = c.count("feature", 12);
      rep.features.items.reserve(nnz);
      for (std::size_t fi = 0; fi < nnz; ++fi) {
        const std::uint32_t id = c.u32("feature id");
        const double value = c.f64("feature value");
        rep.features.items.emplace_back(static_cast<int>(id), value);
      }
      cluster.push_back(std::move(rep));
    }
    m.representatives.push_back(std::move(cluster));
  }
}

/// SHPC is positionally parallel to REPS, which the section order guarantees
/// was decoded first; any arity mismatch means the sections came from
/// different fits.
void decode_shpc(Cursor& c, FittedModel& m) {
  const std::size_t clusters = c.count("shape-count cluster", 8);
  if (clusters != m.representatives.size()) {
    c.fail("shape-count cluster arity does not match representatives");
  }
  for (std::size_t ci = 0; ci < clusters; ++ci) {
    const std::size_t reps = c.count("shape count", 8);
    if (reps != m.representatives[ci].size()) {
      c.fail("shape-count arity does not match representatives in cluster " +
             std::to_string(ci));
    }
    for (std::size_t ri = 0; ri < reps; ++ri) {
      m.representatives[ci][ri].count = c.u64("shape count");
    }
  }
}

}  // namespace

std::string serialize_model(const FittedModel& m) {
  m.validate();
  std::string out;
  out.append(kModelMagic);
  put_u32(out, kModelFormatVersion);
  put_u32(out, static_cast<std::uint32_t>(std::size(kSectionOrder)));
  append_section(out, kTagConf, encode_conf(m));
  append_section(out, kTagDict, encode_dict(m));
  append_section(out, kTagProf, encode_prof(m));
  append_section(out, kTagReps, encode_reps(m));
  append_section(out, kTagShpc, encode_shpc(m));
  return out;
}

SectionSizes section_sizes(const FittedModel& m) {
  SectionSizes s;
  s.conf = encode_conf(m).size();
  s.dict = encode_dict(m).size();
  s.prof = encode_prof(m).size();
  s.reps = encode_reps(m).size();
  s.shpc = encode_shpc(m).size();
  // Preamble (magic + version + section count) plus one 16-byte header
  // (tag u32 + size u64 + crc u32) per section.
  constexpr std::uint64_t kSectionHeader = 4 + 8 + 4;
  s.total = kModelMagic.size() + 4 + 4 +
            std::size(kSectionOrder) * kSectionHeader + s.conf + s.dict +
            s.prof + s.reps + s.shpc;
  return s;
}

FittedModel deserialize_model(std::string_view bytes, std::string_view origin) {
  Cursor c(bytes, origin);
  if (c.bytes(kModelMagic.size(), "magic") != kModelMagic) {
    c.fail("bad magic — not a cwgl model snapshot");
  }
  const std::uint32_t version = c.u32("format version");
  if (version != kModelFormatVersion && version != kModelFormatVersionLegacy) {
    c.fail("unsupported format version " + std::to_string(version) +
           " (this build reads versions " +
           std::to_string(kModelFormatVersionLegacy) + "-" +
           std::to_string(kModelFormatVersion) + ")");
  }
  const std::span<const std::uint32_t> order =
      version == kModelFormatVersionLegacy
          ? std::span<const std::uint32_t>(kSectionOrderLegacy)
          : std::span<const std::uint32_t>(kSectionOrder);
  const std::uint32_t sections = c.u32("section count");
  if (sections != order.size()) {
    c.fail("unexpected section count " + std::to_string(sections));
  }

  FittedModel m;
  for (std::uint32_t tag : order) {
    const std::uint32_t got = c.u32("section tag");
    if (got != tag) c.fail("unexpected or out-of-order section tag");
    const std::uint64_t size = c.u64("section size");
    const std::uint32_t stored_crc = c.u32("section crc");
    std::string_view payload =
        c.bytes(static_cast<std::size_t>(size), "section payload");
    if (util::crc32(payload) != stored_crc) {
      c.fail("section CRC mismatch — snapshot is corrupt");
    }
    Cursor section(payload, origin);
    switch (tag) {
      case kTagConf: decode_conf(section, m); break;
      case kTagDict: decode_dict(section, m); break;
      case kTagProf: decode_prof(section, m); break;
      case kTagReps: decode_reps(section, m); break;
      case kTagShpc: decode_shpc(section, m); break;
    }
    if (section.remaining() != 0) {
      section.fail("trailing bytes inside section payload");
    }
  }
  if (c.remaining() != 0) c.fail("trailing bytes after last section");

  try {
    m.validate();
  } catch (const ModelError& e) {
    throw ModelError("model '" + std::string(origin) +
                     "': semantic validation failed: " + e.what());
  }
  return m;
}

void save_model(const FittedModel& m, const std::filesystem::path& path) {
  const std::string bytes = serialize_model(m);
  // Crash-safe publish: write the snapshot to a *.tmp sibling and atomically
  // rename it over `path` only after every byte landed. A crash (or the
  // "model.write" failpoint, which fires between the two write halves) can
  // leave at most a torn *.tmp behind — the previous snapshot at `path`
  // stays intact and loadable, which is what makes automated hot reload
  // safe: a reloader that watches `path` never observes a partial file.
  // The format's CRCs + strict decoding remain the second line of defense
  // (a torn *.tmp never loads either).
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ModelError("model '" + tmp.string() + "': cannot open for writing");
    }
    const std::size_t half = bytes.size() / 2;
    out.write(bytes.data(), static_cast<std::streamsize>(half));
    out.flush();
    // On a failpoint "crash" the torn temp file stays on disk (a real crash
    // would not clean up either) — only the rename below publishes.
    CWGL_FAILPOINT("model.write");
    out.write(bytes.data() + half,
              static_cast<std::streamsize>(bytes.size() - half));
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw ModelError("model '" + tmp.string() + "': write failed");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw ModelError("model '" + path.string() +
                     "': cannot publish snapshot: " + ec.message());
  }
}

FittedModel load_model(std::istream& in, std::string_view origin) {
  CWGL_FAILPOINT("model.read");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw ModelError("model '" + std::string(origin) + "': read failed");
  }
  return deserialize_model(buffer.view(), origin);
}

FittedModel load_model(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ModelError("model '" + path.string() + "': cannot open for reading");
  }
  CWGL_FAILPOINT("model.read");
  // One buffer of exactly the file's size: a stream copy would grow by
  // doubling and then copy again, briefly holding about twice the snapshot
  // on every daemon start and reload.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw ModelError("model '" + path.string() + "': cannot size: " +
                     ec.message());
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (static_cast<std::size_t>(in.gcount()) != bytes.size()) {
    throw ModelError("model '" + path.string() + "': short read (" +
                     std::to_string(in.gcount()) + " of " +
                     std::to_string(bytes.size()) + " bytes)");
  }
  return deserialize_model(bytes, path.string());
}

}  // namespace cwgl::model
