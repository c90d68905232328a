#pragma once

#include <iosfwd>

namespace cwgl::cli {

/// Entry point used by main(): dispatches `cwgl <command> ...` through the
/// command table that `cwgl help` prints. A command line that its synopsis
/// does not declare exits 2 before the command runs. Returns the process
/// exit code and writes human output to `out` and problems to `err`
/// (testable without spawning a process).
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

}  // namespace cwgl::cli
