#pragma once

#include <iosfwd>
#include <string_view>

#include "cli/args.hpp"

namespace cwgl::cli {

/// Dispatches `cwgl <command> ...`. Returns the process exit code and
/// writes human output to `out` and problems to `err` (testable without
/// spawning a process). The commands and their options are listed by
/// `usage()`, the text `cwgl help` prints.
int run_command(std::string_view command, const Args& args, std::ostream& out,
                std::ostream& err);

/// Entry point used by main(): parses the command word + options and
/// reports usage errors with exit code 2.
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

/// The usage text (also printed by `cwgl help`).
std::string_view usage();

}  // namespace cwgl::cli
