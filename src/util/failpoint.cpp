#include "util/failpoint.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace cwgl::util::failpoint {

namespace {

enum class Mode { Error, Throw, Delay, ShortRead };

struct Site {
  Mode mode = Mode::Error;
  std::uint64_t arg = 0;        ///< delay in microseconds / short-read bytes
  double probability = 1.0;
  std::uint64_t limit = 0;      ///< max triggers; 0 = unlimited
  std::uint64_t visits = 0;
  std::uint64_t triggers = 0;
  Xoshiro256StarStar rng{0};
};

struct Registry {
  std::mutex mutex;
  std::unordered_map<std::string, Site> sites;
  /// Mirrors !sites.empty(): written under the mutex, read without it as
  /// the fast path of visit().
  std::atomic<bool> active{false};
  bool env_checked = false;
};

Registry& registry() {
  static Registry r;
  return r;
}

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw InvalidArgument("failpoint spec \"" + std::string(spec) + "\": " + why);
}

/// Parses "<mode>[:<arg>][@<prob>][*<limit>]" into `site`.
void parse_action(std::string_view spec, std::string_view action, Site& site) {
  // Split off *limit then @prob, right to left, so mode args keep ':' free.
  if (const auto star = action.rfind('*'); star != std::string_view::npos) {
    const auto limit = to_int(action.substr(star + 1));
    if (!limit || *limit < 1) bad_spec(spec, "bad trigger limit");
    site.limit = static_cast<std::uint64_t>(*limit);
    action = action.substr(0, star);
  }
  if (const auto at = action.rfind('@'); at != std::string_view::npos) {
    const auto prob = to_double(action.substr(at + 1));
    if (!prob || *prob < 0.0 || *prob > 1.0) {
      bad_spec(spec, "probability must be in [0, 1]");
    }
    site.probability = *prob;
    action = action.substr(0, at);
  }
  std::string_view mode = action;
  std::string_view arg;
  if (const auto colon = action.find(':'); colon != std::string_view::npos) {
    mode = action.substr(0, colon);
    arg = action.substr(colon + 1);
  }
  if (mode == "error") {
    site.mode = Mode::Error;
  } else if (mode == "throw") {
    site.mode = Mode::Throw;
  } else if (mode == "delay") {
    site.mode = Mode::Delay;
    site.arg = 1000;  // default 1ms
    if (!arg.empty()) {
      std::uint64_t unit = 1000;
      if (arg.size() >= 2 && arg.substr(arg.size() - 2) == "us") {
        unit = 1;
        arg = arg.substr(0, arg.size() - 2);
      } else if (arg.size() >= 2 && arg.substr(arg.size() - 2) == "ms") {
        arg = arg.substr(0, arg.size() - 2);
      }
      const auto n = to_int(arg);
      if (!n || *n < 0) bad_spec(spec, "bad delay duration");
      site.arg = static_cast<std::uint64_t>(*n) * unit;
    }
  } else if (mode == "short-read") {
    site.mode = Mode::ShortRead;
    site.arg = 1;
    if (!arg.empty()) {
      const auto n = to_int(arg);
      if (!n || *n < 1) bad_spec(spec, "bad short-read size");
      site.arg = static_cast<std::uint64_t>(*n);
    }
  } else {
    bad_spec(spec, "unknown mode \"" + std::string(mode) + "\"");
  }
}

std::unordered_map<std::string, Site> parse_spec(std::string_view spec) {
  std::unordered_map<std::string, Site> sites;
  std::uint64_t seed = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto semi = spec.find(';', pos);
    std::string_view entry = spec.substr(
        pos, semi == std::string_view::npos ? std::string_view::npos
                                            : semi - pos);
    pos = semi == std::string_view::npos ? spec.size() + 1 : semi + 1;
    entry = trim(entry);
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      bad_spec(spec, "expected <site>=<action>");
    }
    const std::string_view name = trim(entry.substr(0, eq));
    const std::string_view action = trim(entry.substr(eq + 1));
    if (name == "seed") {
      const auto s = to_int(action);
      if (!s) bad_spec(spec, "bad seed");
      seed = static_cast<std::uint64_t>(*s);
      continue;
    }
    Site site;
    parse_action(spec, action, site);
    sites.emplace(std::string(name), site);
  }
  // Per-site streams derive from (seed, site name) so adding one site never
  // perturbs another site's trigger sequence.
  for (auto& [name, site] : sites) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : name) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    site.rng = Xoshiro256StarStar(hash_combine(seed, h));
  }
  return sites;
}

void install(std::unordered_map<std::string, Site> sites) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.sites = std::move(sites);
  r.active = !r.sites.empty();
  r.env_checked = true;  // explicit configuration wins over the environment
}

/// Reads CWGL_FAILPOINTS once, the first time any site is consulted without
/// a prior configure() call — so binaries pick up faults with no code change.
void ensure_env_loaded() {
  Registry& r = registry();
  {
    std::lock_guard lock(r.mutex);
    if (r.env_checked) return;
    r.env_checked = true;
  }
  const char* env = std::getenv("CWGL_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  auto sites = parse_spec(env);
  std::lock_guard lock(r.mutex);
  r.sites = std::move(sites);
  r.active = !r.sites.empty();
}

/// Decides whether `site` fires on this visit; returns the action to take.
/// nullopt = pass through. Delay durations are returned so the sleep happens
/// outside the registry lock.
struct Fired {
  Mode mode;
  std::uint64_t arg;
  std::string site;
};
std::optional<Fired> visit(const char* name, bool clamp_site) {
  Registry& r = registry();
  if (!r.active) return std::nullopt;
  std::lock_guard lock(r.mutex);
  const auto it = r.sites.find(name);
  if (it == r.sites.end()) return std::nullopt;
  Site& site = it->second;
  // A short-read site only acts at CLAMP points and vice versa, so one name
  // can guard both the control path (hit) and the size path (clamp).
  if ((site.mode == Mode::ShortRead) != clamp_site) return std::nullopt;
  ++site.visits;
  if (site.limit != 0 && site.triggers >= site.limit) return std::nullopt;
  if (site.probability < 1.0 && !site.rng.bernoulli(site.probability)) {
    return std::nullopt;
  }
  ++site.triggers;
  return Fired{site.mode, site.arg, it->first};
}

}  // namespace

void configure(std::string_view spec) { install(parse_spec(spec)); }

void clear() { install({}); }

bool configured(std::string_view site) {
  ensure_env_loaded();
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return r.sites.find(std::string(site)) != r.sites.end();
}

void hit(const char* site) {
  ensure_env_loaded();
  const auto fired = visit(site, /*clamp_site=*/false);
  if (!fired) return;
  switch (fired->mode) {
    case Mode::Error:
      throw FailpointError("failpoint " + fired->site + ": injected error");
    case Mode::Throw:
      throw std::runtime_error("failpoint " + fired->site +
                               ": injected foreign exception");
    case Mode::Delay:
      std::this_thread::sleep_for(std::chrono::microseconds(fired->arg));
      return;
    case Mode::ShortRead:
      return;  // unreachable: filtered in visit()
  }
}

std::size_t clamp(const char* site, std::size_t n) {
  ensure_env_loaded();
  const auto fired = visit(site, /*clamp_site=*/true);
  if (!fired) return n;
  return std::min(n, static_cast<std::size_t>(std::max<std::uint64_t>(
                         1, fired->arg)));
}

std::vector<SiteReport> report() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::vector<SiteReport> out;
  out.reserve(r.sites.size());
  for (const auto& [name, site] : r.sites) {
    out.push_back({name, site.visits, site.triggers});
  }
  std::sort(out.begin(), out.end(),
            [](const SiteReport& a, const SiteReport& b) {
              return a.site < b.site;
            });
  return out;
}

}  // namespace cwgl::util::failpoint
