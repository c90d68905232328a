#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace cwgl::cli {

/// Minimal `--key value` / `--key=value` / `--flag` / positional parser for
/// the cwgl tool.
///
/// Grammar: `cwgl <command> [--key value | --key=value | --flag | operand]...`.
/// Keys start with "--". A key named in `flags` never takes a value from the
/// next token; any other key takes the next token as its value unless that
/// token is another key or there is none. `--key=` supplies an explicit
/// (possibly empty) value. Every other bare token is a positional operand
/// (`cwgl predict --model m.cwgl --json jobs.csv`), kept in appearance order.
/// Which keys and how many operands a command accepts is checked by the
/// dispatcher, not here.
class Args {
 public:
  using FlagSet = std::set<std::string, std::less<>>;

  /// Parses everything after the command word.
  static Args parse(int argc, const char* const* argv, int start_index,
                    const FlagSet& flags);

  /// Positional operand by position, or `fallback` when there are fewer.
  std::string positional(std::size_t index, std::string_view fallback = "") const;

  std::size_t positional_count() const noexcept { return positionals_.size(); }

  /// String option or fallback.
  std::string get(std::string_view key, std::string_view fallback = "") const;

  /// Integer option; nullopt when absent, throws InvalidArgument on junk.
  std::optional<long long> get_int(std::string_view key) const;

  /// Double option; nullopt when absent, throws InvalidArgument on junk.
  std::optional<double> get_double(std::string_view key) const;

  /// True if `--key` appeared (with or without a value).
  bool has(std::string_view key) const;

  /// Every key that appeared, in name order, with its value.
  const std::map<std::string, std::string, std::less<>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positionals_;
};

}  // namespace cwgl::cli
