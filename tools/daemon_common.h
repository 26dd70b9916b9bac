// Lifecycle shared by the network daemons (pkgm_netd, pkgm_psd): shutdown
// signals, the published port file and the serve-until-signal wait.
#ifndef PKGM_TOOLS_DAEMON_COMMON_H_
#define PKGM_TOOLS_DAEMON_COMMON_H_

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

namespace pkgm::tool {

inline std::atomic<int> g_shutdown_signal{0};

/// Records SIGINT/SIGTERM for WaitForShutdown. Install before the port
/// file is published: a caller may signal as soon as the port appears,
/// and that signal must drain the daemon, not kill it.
inline void InstallShutdownHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = [](int signum) { g_shutdown_signal.store(signum); };
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// Publishes `port` at `path` write-then-rename, so a polling reader never
/// reads a partial file. False (with a message naming `daemon`) on failure.
inline bool WritePortFile(const std::string& path, uint16_t port,
                          const char* daemon) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", daemon, path.c_str());
    return false;
  }
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  std::rename(tmp.c_str(), path.c_str());
  return true;
}

/// Blocks until SIGINT/SIGTERM, or until `run_seconds` elapse when it is
/// positive, then prints that the `daemon` is draining.
inline void WaitForShutdown(int run_seconds, const char* daemon) {
  const auto start = std::chrono::steady_clock::now();
  while (g_shutdown_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (run_seconds > 0 && std::chrono::steady_clock::now() - start >=
                               std::chrono::seconds(run_seconds)) {
      break;
    }
  }
  const int signum = g_shutdown_signal.load();
  std::printf("\n%s: %s — draining ...\n", daemon,
              signum != 0 ? ::strsignal(signum) : "run time elapsed");
}

}  // namespace pkgm::tool

#endif  // PKGM_TOOLS_DAEMON_COMMON_H_
