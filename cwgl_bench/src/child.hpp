#pragma once

// Child processes and /proc readers: the benchmark measures the real `cwgl`
// binary from outside, so CPU time and memory come from the kernel's
// accounting of the child, not from anything the child reports.

#include <sys/types.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace cwgl::e2e {

/// What wait4() reports for a finished child.
struct Usage {
  int exit_code = -1;       ///< exit status, or 128 + signal
  double wall_s = 0.0;      ///< spawn to reap
  double cpu_s = 0.0;       ///< user + system
  double peak_rss_mb = 0.0; ///< ru_maxrss
};

/// A spawned process with stdout and stderr sent to files. The destructor
/// kills and reaps a child that is still running, so no error path leaves
/// one behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv,
        const std::filesystem::path& stdout_path,
        const std::filesystem::path& stderr_path);
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  pid_t pid() const noexcept { return pid_; }
  std::chrono::steady_clock::time_point started() const noexcept {
    return started_;
  }

  /// Blocks until the child exits.
  Usage wait();

  /// Waits up to `limit`; nullopt when the child is still running.
  std::optional<Usage> wait_for(std::chrono::milliseconds limit);

 private:
  std::optional<Usage> reap(int options);

  pid_t pid_ = -1;
  std::chrono::steady_clock::time_point started_;
};

/// CPU time of a live process, all threads including exited ones, from its
/// process CPU clock. Nanosecond resolution, where /proc/PID/stat counts
/// 10 ms ticks.
double cpu_seconds(pid_t pid);

/// Peak resident set (VmHWM) of a live process, from /proc/PID/status.
double proc_peak_rss_mb(pid_t pid);

/// Host-wide CPU jiffies from the first line of /proc/stat.
struct HostCpu {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
HostCpu host_cpu();

/// Steal time between two samples, as a percentage of all CPU time.
double steal_pct(const HostCpu& before, const HostCpu& after);

/// Reads a whole file; throws util::Error when it cannot be opened.
std::string read_file(const std::filesystem::path& path);

}  // namespace cwgl::e2e
