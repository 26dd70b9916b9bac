#include "proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace pkgm::perfbench {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) Terminate();
}

bool ChildProcess::Spawn(const std::vector<std::string>& argv,
                         const std::string& log_path) {
  std::vector<std::string> args = argv;
  std::vector<char*> cargv;
  for (std::string& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    _exit(127);
  }
  pid_ = pid;
  return true;
}

int ChildProcess::Terminate() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const pid_t got = ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (got <= 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

bool ChildProcess::Running() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

uint16_t WaitForPortFile(const std::string& path, ChildProcess* child,
                         int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string text = ReadFile(path);
    const long port = std::atol(text.c_str());
    if (port > 0 && port < 65536) return static_cast<uint16_t>(port);
    if (!child->Running()) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return 0;
}

bool WaitUntilCatches(ChildProcess* child, int signum, int timeout_ms) {
  const std::string status =
      "/proc/" + std::to_string(child->pid()) + "/status";
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (ParseCatchesSignal(ReadFile(status), signum)) return true;
    if (!child->Running()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

double PidCpuSeconds(pid_t pid) {
  const auto ticks =
      ParsePidCpuTicks(ReadFile("/proc/" + std::to_string(pid) + "/stat"));
  if (!ticks) return 0.0;
  return static_cast<double>(*ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PidPeakRssMb(pid_t pid) {
  const auto kb =
      ParseVmHwmKb(ReadFile("/proc/" + std::to_string(pid) + "/status"));
  return kb ? static_cast<double>(*kb) / 1024.0 : 0.0;
}

double SelfCpuSeconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

CpuTimes HostCpuTimes() {
  return ParseProcStat(ReadFile("/proc/stat")).value_or(CpuTimes{});
}

std::vector<pid_t> ChildPids(const std::string& comm) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  const int self = static_cast<int>(::getpid());
  while (dirent* entry = ::readdir(dir)) {
    const int pid = std::atoi(entry->d_name);
    if (pid <= 0) continue;
    int ppid = 0;
    std::string name;
    if (ParsePidParent(ReadFile(std::string("/proc/") + entry->d_name + "/stat"),
                       &ppid, &name) &&
        ppid == self && name == comm) {
      out.push_back(pid);
    }
  }
  ::closedir(dir);
  return out;
}

}  // namespace pkgm::perfbench
