// The system under test for the serve workloads: `soctest_cli serve` as a
// child process, exactly as an operator would launch it.
#pragma once

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();  // stops a still-running child and waits for it

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `cli serve <args...>` and waits (up to 30 s) for its
  // "LISTENING port=N" line. False with *error on failure.
  bool Start(const std::string& cli, const std::vector<std::string>& args,
             std::string* error);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // Graceful stop: SIGTERM, read the final STATS line the CLI prints after
  // draining, and reap the child (SIGKILL after 15 s). Returns that line
  // ("" when it never came). Idempotent.
  std::string Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  std::string pending_;  // stdout bytes read past the LISTENING line
};

// "STATS server k=v k=v ..." -> {k: v}; non-numeric values are skipped.
std::map<std::string, long long> ParseStatsLine(const std::string& line);

}  // namespace perfbench
