#include "cli/args.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace cwgl::cli {

Args Args::parse(int argc, const char* const* argv, int start_index,
                 const FlagSet& flags) {
  Args args;
  for (int i = start_index; i < argc; ++i) {
    std::string_view token = argv[i];
    if (token.size() < 3 || token.substr(0, 2) != "--") {
      args.positionals_.emplace_back(token);
      continue;
    }
    const std::string_view body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      // --key=value form: the value may be empty and may itself start with
      // "--" (e.g. --filter=--foo), which the space-separated form can't say.
      args.values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    const std::string key(body);
    if (!flags.count(key) && i + 1 < argc &&
        std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      args.values_[key] = argv[++i];
    } else {
      args.values_[key] = "";  // boolean flag
    }
  }
  return args;
}

std::string Args::positional(std::size_t index, std::string_view fallback) const {
  return index < positionals_.size() ? positionals_[index]
                                     : std::string(fallback);
}

std::string Args::get(std::string_view key, std::string_view fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::string(fallback) : it->second;
}

std::optional<long long> Args::get_int(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  const auto value = util::to_int(it->second);
  if (!value) {
    throw util::InvalidArgument("--" + std::string(key) +
                                " expects an integer, got '" + it->second + "'");
  }
  return value;
}

std::optional<double> Args::get_double(std::string_view key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  const auto value = util::to_double(it->second);
  if (!value) {
    throw util::InvalidArgument("--" + std::string(key) +
                                " expects a number, got '" + it->second + "'");
  }
  return value;
}

bool Args::has(std::string_view key) const {
  return values_.find(key) != values_.end();
}

}  // namespace cwgl::cli
