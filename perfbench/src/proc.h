// Process plumbing: spawning and stopping the daemons the benchmark
// drives, and reading their CPU time and peak RSS from /proc.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "aggregate.h"

namespace pkgm::perfbench {

/// Whole file, or "" when unreadable.
std::string ReadFile(const std::string& path);

/// A child process running a daemon binary, its output sent to a log file.
/// The destructor stops a child that is still running, so no run leaves a
/// daemon behind on an error path.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// fork + exec of argv[0]; stdout and stderr go to `log_path`.
  bool Spawn(const std::vector<std::string>& argv,
             const std::string& log_path);

  /// SIGTERM, then waits for the exit. Returns the exit code, or -1 when
  /// the child died from a signal or was not running.
  int Terminate();

  /// True while the child has not exited (reaps it when it has).
  bool Running();

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Waits for a daemon's write-then-rename port file. Returns the port, or
/// 0 when `child` exits or `timeout_ms` passes first.
uint16_t WaitForPortFile(const std::string& path, ChildProcess* child,
                         int timeout_ms);

/// Waits until `child` has a handler installed for `signum`, so a signal
/// sent right after it started is handled rather than killing it. False
/// when `child` exits or `timeout_ms` passes first.
bool WaitUntilCatches(ChildProcess* child, int signum, int timeout_ms);

/// utime + stime of `pid` in seconds (0 when unreadable).
double PidCpuSeconds(pid_t pid);
/// VmHWM of `pid` in MiB (0 when unreadable).
double PidPeakRssMb(pid_t pid);
/// User + system CPU seconds of this process.
double SelfCpuSeconds();
/// Aggregate CPU counters of the host.
CpuTimes HostCpuTimes();

/// Live child processes of this process whose command name is `comm`.
std::vector<pid_t> ChildPids(const std::string& comm);

}  // namespace pkgm::perfbench

#endif  // PERFBENCH_PROC_H_
