#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"

extern char** environ;

namespace perfbench {
namespace {

// Reads whatever is available on fd within timeout_ms; false on EOF/error.
bool ReadAvailable(int fd, int timeout_ms, std::string* out) {
  pollfd p{fd, POLLIN, 0};
  if (poll(&p, 1, timeout_ms) <= 0) return true;  // nothing yet
  char buf[4096];
  const ssize_t n = read(fd, buf, sizeof buf);
  if (n <= 0) return false;
  out->append(buf, static_cast<std::size_t>(n));
  return true;
}

}  // namespace

double ProcessCpuUs(pid_t pid) {
  // The kernel's per-process CPU clock: all threads, nanosecond resolution
  // (the tick counts in /proc/<pid>/stat are 10 ms coarse).
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != 0 && clock_getcpuclockid(pid, &clock) != 0) return -1;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double ProcessPeakRssMb(pid_t pid) {
  const std::string path = pid == 0
                               ? "/proc/self/status"
                               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return -1;
}

std::map<std::string, long long> ParseStatsLine(const std::string& line) {
  std::map<std::string, long long> out;
  std::istringstream words(line);
  std::string word;
  while (words >> word) {
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos || eq + 1 >= word.size()) continue;
    char* end = nullptr;
    const long long value = std::strtoll(word.c_str() + eq + 1, &end, 10);
    if (*end == '\0') out[word.substr(0, eq)] = value;
  }
  return out;
}

bool ServerProcess::Start(const std::string& cli,
                          const std::vector<std::string>& args,
                          std::string* error) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<std::string> argv_strings = {cli, "serve"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    *error = "cannot spawn " + cli;
    return false;
  }

  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    const std::size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      const std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      if (line.rfind("LISTENING port=", 0) == 0) {
        port_ = std::atoi(line.c_str() + 15);
        return port_ > 0;
      }
      continue;
    }
    if (!ReadAvailable(stdout_fd_, 100, &pending_)) break;
  }
  *error = "server never reported LISTENING";
  Stop();
  return false;
}

std::string ServerProcess::Stop() {
  if (pid_ <= 0) return "";
  kill(pid_, SIGTERM);
  std::string out = pending_;
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  while (Clock::now() < deadline && ReadAvailable(stdout_fd_, 100, &out)) {
  }
  int status = 0;
  const auto reap_deadline = Clock::now() + std::chrono::seconds(5);
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > reap_deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  close(stdout_fd_);
  stdout_fd_ = -1;
  pending_.clear();
  const std::size_t at = out.rfind("STATS server");
  if (at == std::string::npos) return "";
  return out.substr(at, out.find('\n', at) - at);
}

ServerProcess::~ServerProcess() { Stop(); }

}  // namespace perfbench
