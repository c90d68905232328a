#include "child.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/error.hpp"

extern char** environ;

namespace cwgl::e2e {

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv,
             const std::filesystem::path& stdout_path,
             const std::filesystem::path& stderr_path) {
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                   stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  started_ = std::chrono::steady_clock::now();
  const int rc =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw util::Error("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
}

Child::~Child() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  reap(0);
}

std::optional<Usage> Child::reap(int options) {
  if (pid_ <= 0) return std::nullopt;
  int status = 0;
  rusage ru{};
  pid_t got = -1;
  do {
    got = ::wait4(pid_, &status, options, &ru);
  } while (got < 0 && errno == EINTR);
  if (got == 0) return std::nullopt;
  Usage u;
  u.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           started_)
                 .count();
  pid_ = -1;
  if (got < 0) return u;
  u.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                  : 128 + WTERMSIG(status);
  u.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

Usage Child::wait() {
  auto u = reap(0);
  if (!u) throw util::Error("wait4 returned no status");
  return *u;
}

std::optional<Usage> Child::wait_for(std::chrono::milliseconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  for (;;) {
    if (auto u = reap(WNOHANG)) return u;
    if (std::chrono::steady_clock::now() >= until) return std::nullopt;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::Error("cannot open " + path.string());
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

double cpu_seconds(pid_t pid) {
  clockid_t clock{};
  timespec ts{};
  if (::clock_getcpuclockid(pid, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    throw util::Error("cannot read the CPU clock of pid " +
                      std::to_string(pid));
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double proc_peak_rss_mb(pid_t pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) / 1024.0;
    }
  }
  throw util::Error("no VmHWM for pid " + std::to_string(pid));
}

HostCpu host_cpu() {
  std::istringstream in(read_file("/proc/stat"));
  std::string cpu;
  in >> cpu;
  HostCpu h;
  unsigned long long v = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already inside user, so only the first eight fields are summed.
  for (int i = 0; i < 8 && in >> v; ++i) {
    h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

double steal_pct(const HostCpu& before, const HostCpu& after) {
  const auto total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

}  // namespace cwgl::e2e
