// perfbench — the repository benchmark's runner.
//
//   perfbench --workload serve_mixed|train_local|train_ps --seed N
//             --seconds S --trace 0|1
//
// The daemons it spawns are taken from pkgm/tools/ beside the executable
// (where perfbench/CMakeLists.txt builds them); port files, logs and traces
// go to run/ beside it.
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics. --trace 1 runs it untraced and then traced (reporting the
// difference as tracing overhead), then measures every layer: from the
// traced pass where the workload drives the layer, from a short traced
// probe of the serving or parameter-server path where it does not, and
// from replays of recorded inputs through each layer's functions. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// The exit code is 1 when an output check failed, 2 on bad arguments.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "aggregate.h"
#include "bench.h"
#include "layers.h"
#include "net/wire.h"
#include "proc.h"
#include "serve_workload.h"
#include "tensor/simd/kernel_dispatch.h"
#include "train_workload.h"

namespace pkgm::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json; run.py checks the two agree.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},  {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
    {"final_hinge", "hinge"},
};

const MetricDef kPerLayer[] = {
    {"net.frames_per_syscall", "frames/syscall"},
    {"net.wait_calls_per_frame", "calls/frame"},
    {"net.bytes_per_request", "B"},
    {"net.transport_us_p50", "us"},
    {"net.ps_frames_per_syscall", "frames/syscall"},
    {"wire.request_codec_ns", "ns"},
    {"wire.reply_codec_ns", "ns"},
    {"wire.push_codec_ns_per_row", "ns"},
    {"wire.pull_codec_ns_per_row", "ns"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.execute_us_p50", "us"},
    {"serve.execute_us_p99", "us"},
    {"serve.cache_hit_share", "share"},
    {"serve.backend_fetches_per_lookup", "fetches/lookup"},
    {"infer.forward_us.recommend", "us"},
    {"infer.forward_us.classify", "us"},
    {"infer.forward_us.align", "us"},
    {"core.condensed_us", "us"},
    {"core.sample_ns_per_triple", "ns"},
    {"core.fwd_bwd_ns_per_triple", "ns"},
    {"core.rows_per_batch", "rows"},
    {"core.active_pair_share", "share"},
    {"dist.pull_rows_per_triple", "rows/triple"},
    {"dist.push_rows_per_triple", "rows/triple"},
    {"dist.bytes_per_triple", "B/triple"},
    {"dist.pull_rtt_us_p50", "us"},
    {"dist.push_rtt_us_p50", "us"},
    {"tensor.gemv_ns.d64", "ns"},
    {"tensor.gemv_t_ns.d64", "ns"},
    {"tensor.ger_ns.d64", "ns"},
    {"tensor.axpy_ns.d64", "ns"},
    {"tensor.gemm_bias_ns.tinybert", "ns"},
    {"client.latency_p50_us.lookup", "us"},
    {"client.latency_p50_us.recommend", "us"},
    {"client.latency_p50_us.classify", "us"},
    {"client.latency_p50_us.align", "us"},
    {"client.latency_p99_us", "us"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mixed|train_local|train_ps "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || a->seconds <= 0.0) return false;
  return a->workload == "serve_mixed" || a->workload == "train_local" ||
         a->workload == "train_ps";
}

/// Directory of this executable (where the build put the daemons too).
std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  return path.substr(0, path.rfind('/'));
}

std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// One pass of the chosen workload; the replica is built on first need.
class WorkloadRunner {
 public:
  WorkloadRunner(const Args& args, const RunOptions& run)
      : args_(args), run_(run) {}

  ServeReplica* replica() {
    if (replica_ == nullptr) replica_ = BuildServeReplica(run_.seed);
    return replica_.get();
  }

  PassResult Serve(double seconds, int launches, const TraceContext& trace) {
    ServePassOptions opts;
    opts.window_seconds = seconds;
    opts.launches = launches;
    return RunServePass(run_, opts, replica(), trace);
  }

  PassResult Train(bool distributed, double seconds, int min_jobs,
                   const TraceContext& trace) {
    TrainPassOptions opts;
    opts.distributed = distributed;
    opts.seconds = seconds;
    opts.min_jobs = min_jobs;
    return RunTrainPass(run_, opts, trace);
  }

  /// The workload itself, timed for --seconds; records host steal.
  PassResult Workload(const TraceContext& trace) {
    const CpuTimes before = HostCpuTimes();
    PassResult r = args_.workload == "serve_mixed"
                       ? Serve(args_.seconds, kLaunches, trace)
                       : Train(args_.workload == "train_ps", args_.seconds,
                               kMinJobs, trace);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  StealShare(before, HostCpuTimes()));
    r.notes[trace.tracer ? "steal_share.traced" : "steal_share"] = buf;
    return r;
  }

 private:
  // Quiet daemon launches (serve) and jobs (train) per pass; setup_s is
  // their median.
  static constexpr int kLaunches = 5;
  static constexpr int kMinJobs = 3;

  const Args& args_;
  const RunOptions& run_;
  std::unique_ptr<ServeReplica> replica_;
};

void PrintEnv(const PassResult& r) {
  utsname u{};
  ::uname(&u);
  std::printf("env: isa=%s crc32c=%s nproc=%ld kernel=%s", simd::ActiveIsaName(),
              net::Crc32cImplName(), ::sysconf(_SC_NPROCESSORS_ONLN),
              u.release);
  for (const char* key : {"io_backend.daemon", "io_backend.client",
                          "io_backend.shards", "steal_share",
                          "steal_share.traced", "steal_share.serve"}) {
    auto it = r.notes.find(key);
    if (it != r.notes.end()) {
      std::printf(" %s=%s", key, it->second.c_str());
    }
  }
  std::printf("\n");
}

int Run(const Args& args) {
  RunOptions run;
  run.seed = args.seed;
  run.bin_dir = SelfDir() + "/pkgm/tools";
  run.work_dir = SelfDir() + "/run";
  ::mkdir(run.work_dir.c_str(), 0755);
  // Spawned daemons inherit stdout (LocalShardCluster does not redirect
  // it); park it in a log while the passes run so stdout carries only the
  // report.
  std::fflush(stdout);
  const int saved_stdout = ::dup(STDOUT_FILENO);
  const int children_log =
      ::open((run.work_dir + "/children.log").c_str(),
             O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (children_log >= 0) {
    ::dup2(children_log, STDOUT_FILENO);
    ::close(children_log);
  }
  WorkloadRunner runner(args, run);
  if (args.workload == "serve_mixed") runner.replica();

  PassResult result = runner.Workload(TraceContext{});
  std::vector<MetricDef> report(std::begin(kEndToEnd), std::end(kEndToEnd));

  if (args.trace) {
    Tracer tracer;
    const auto origin = Clock::now();
    PassResult traced;
    {
      ScopedSpan root(&tracer, "pass.workload", 0);
      traced = runner.Workload(TraceContext{&tracer, root.id()});
    }
    for (const MetricDef& d : kEndToEnd) {
      result.notes[std::string("overhead.") + d.name] =
          Number(traced.metrics[d.name] - result.metrics[d.name]) + " " +
          d.unit + " (traced - untraced)";
    }
    PassResult layers;
    layers.Merge(traced);
    {
      ScopedSpan root(&tracer, "pass.layer_probes", 0);
      const TraceContext probe{&tracer, root.id()};
      // Paths this workload does not drive get a short traced probe, so
      // every layer is measured in every traced run.
      if (args.workload != "serve_mixed") {
        layers.Merge(runner.Serve(std::max(2.0, args.seconds / 4), 1, probe));
      }
      if (args.workload != "train_ps") {
        layers.Merge(runner.Train(true, 0.0, 1, probe));
      }
      ReplayServeLayers(runner.replica(), args.seed, probe, &layers);
      ReplayKernels(probe);
    }
    layers.metrics.merge(ReplayMetrics(tracer));
    const std::string trace_path = run.work_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   ".jsonl";
    if (tracer.WriteJsonLines(trace_path, origin)) {
      result.notes["trace"] = std::to_string(tracer.size()) +
                              " spans written to " + trace_path;
    }
    // Counts and checks of every pass in the run; the metrics reported
    // are the per-layer ones.
    result.metrics.clear();
    result.Merge(layers);
    report.assign(std::begin(kPerLayer), std::end(kPerLayer));
  }

  std::fflush(stdout);
  if (saved_stdout >= 0) {
    ::dup2(saved_stdout, STDOUT_FILENO);
    ::close(saved_stdout);
  }
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: attempted %llu, "
              "ok %llu, failed %llu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.attempted - result.failed),
              static_cast<unsigned long long>(result.failed));
  std::string json_metrics;
  for (const MetricDef& d : report) {
    auto it = result.metrics.find(d.name);
    if (it == result.metrics.end()) {
      result.Fail(std::string("metric not measured: ") + d.name);
      continue;
    }
    std::printf("  %-34s %14.4f %s\n", d.name, it->second, d.unit);
    if (!json_metrics.empty()) json_metrics += ", ";
    json_metrics += std::string("\"") + d.name + "\": {\"value\": " +
                    Number(it->second) + ", \"unit\": \"" + d.unit + "\"}";
  }
  for (const auto& [key, value] : result.notes) {
    std::printf("  note %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& f : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  PrintEnv(result);
  const bool correct = result.check_failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(result.attempted, 1)),
      static_cast<unsigned long long>(result.failed), json_metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pkgm::perfbench

int main(int argc, char** argv) {
  pkgm::perfbench::Args args;
  if (!pkgm::perfbench::ParseArgs(argc, argv, &args)) return pkgm::perfbench::Usage();
  return pkgm::perfbench::Run(args);
}
