/* peak_rss CMD [ARGS...]: runs CMD with stdout sent to /dev/null and prints
 * "<peak RSS in KiB> <exit code>" for it.
 *
 * Linux starts a child's ru_maxrss at the peak RSS of the process that
 * spawned it, so a child measured from a Python interpreter (8-14 MB)
 * reads at least that much. This launcher stays near 1 MB, so the figure
 * is the child's own. Used by the fulltrace-smoke pass of scripts/check.sh.
 */
#include <fcntl.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: peak_rss CMD [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    perror("peak_rss: fork");
    return 2;
  }
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_WRONLY);
    if (null_fd < 0 || dup2(null_fd, STDOUT_FILENO) < 0) _exit(127);
    execv(argv[1], argv + 1);
    perror("peak_rss: exec");
    _exit(127);
  }
  int status = 0;
  struct rusage usage = {0};
  if (wait4(pid, &status, 0, &usage) != pid) {
    perror("peak_rss: wait4");
    return 2;
  }
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  printf("%ld %d\n", usage.ru_maxrss, code);
  return 0;
}
