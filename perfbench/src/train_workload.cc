#include "train_workload.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggregate.h"
#include "bench/bench_common.h"
#include "core/sharded_trainer.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "dist/local_cluster.h"
#include "kg/synthetic_pkg.h"
#include "layers.h"
#include "net/net_client.h"
#include "proc.h"

namespace pkgm::perfbench {
namespace {

// Shared by both trainers, so the two workloads' final_hinge compare.
constexpr uint32_t kDim = 64;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kShards = 2;
constexpr uint32_t kBatch = 512;
constexpr float kLearningRate = 0.05f;
constexpr float kMargin = 2.0f;
/// Short jobs keep a run close to its window even when the host is slow
/// (a train_ps epoch takes 0.7 s on a 4-vCPU VM, 1.3 s under heavy host
/// steal).
constexpr uint32_t kEpochs = 5;

/// The bench-scale PKG (40,667 observed triples for the default seed), its
/// generator seeded from the run's seed.
kg::SyntheticPkg GenerateKg(uint64_t seed) {
  kg::SyntheticPkgOptions opt = bench::BenchPipelineOptions().pkg;
  opt.seed = seed;
  return kg::SyntheticPkgGenerator(opt).Generate();
}

core::PkgmModelOptions ModelOptions(const kg::SyntheticPkg& pkg,
                                    uint64_t seed) {
  core::PkgmModelOptions mopt;
  mopt.num_entities = static_cast<uint32_t>(pkg.entities.size());
  mopt.num_relations = static_cast<uint32_t>(pkg.relations.size());
  mopt.dim = kDim;
  mopt.seed = seed;
  return mopt;
}

/// One RunEpoch call: the unit the training figures are medians over.
struct Epoch {
  double us = 0.0;
  double triples = 0.0;
  double cpu_s = 0.0;
  double steal = 0.0;
};

struct Job {
  double setup_s = 0.0;
  /// Host steal share during the set-up.
  double setup_steal = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t triples = 0;
  uint64_t active_pairs = 0;
  uint64_t epochs_run = 0;
  bool epoch_failed = false;
  std::vector<Epoch> epochs;
  double first_hinge = 0.0;
  double last_hinge = 0.0;
  double final_hinge = 0.0;
  // Parameter-server counters over the epochs.
  uint64_t rows_pulled = 0;
  uint64_t rows_pushed = 0;
  double shard_bytes = 0.0;
  double shard_frames = 0.0;
  double shard_syscalls = 0.0;
};

/// Times one epoch (wall, CPU of the training processes via `cpu_now`,
/// host steal) and folds its stats into `job`.
template <typename RunEpoch, typename CpuNow>
bool TimedEpoch(RunEpoch run_epoch, CpuNow cpu_now, const TraceContext& trace,
                const char* span_name, Job* job) {
  const CpuTimes host_before = HostCpuTimes();
  const double cpu_before = cpu_now();
  const auto start = Clock::now();
  std::optional<core::EpochStats> stats;
  {
    ScopedSpan span(trace.tracer, span_name, trace.root);
    stats = run_epoch();
  }
  Epoch e;
  e.us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
  e.cpu_s = cpu_now() - cpu_before;
  e.steal = StealShare(host_before, HostCpuTimes());
  ++job->epochs_run;
  if (!stats) {
    job->epoch_failed = true;
    return false;
  }
  e.triples = static_cast<double>(stats->total_pairs);
  job->epochs.push_back(e);
  if (job->epochs_run == 1) job->first_hinge = stats->mean_hinge;
  job->last_hinge = stats->mean_hinge;
  job->triples += stats->total_pairs;
  job->active_pairs += stats->active_pairs;
  return true;
}

/// ShardedTrainer job; final hinge from an evaluator Trainer on the trained
/// model, as `pkgm_tool train --eval-hinge` computes it.
void RunLocalJob(const RunOptions& run, const TraceContext& trace, Job* job) {
  const CpuTimes host_before = HostCpuTimes();
  const auto start = Clock::now();
  kg::SyntheticPkg pkg = GenerateKg(run.seed);
  core::PkgmModel model(ModelOptions(pkg, run.seed));
  core::ShardedTrainerOptions sopt;
  sopt.num_workers = kWorkers;
  sopt.batch_size = kBatch;
  sopt.learning_rate = kLearningRate;
  sopt.margin = kMargin;
  sopt.seed = run.seed;
  core::ShardedTrainer trainer(&model, &pkg.observed, sopt);
  job->setup_s = SecondsSince(start);
  job->setup_steal = StealShare(host_before, HostCpuTimes());

  for (uint32_t e = 0; e < kEpochs; ++e) {
    TimedEpoch([&] { return std::optional(trainer.RunEpoch()); },
               SelfCpuSeconds, trace, "core.run_epoch", job);
  }
  job->peak_rss_mb = PidPeakRssMb(::getpid());

  core::TrainerOptions eopt;
  eopt.margin = kMargin;
  eopt.seed = run.seed;
  core::Trainer evaluator(&model, &pkg.observed, eopt);
  std::vector<kg::Triple> triples;
  pkg.observed.AppendTriples(&triples);
  job->final_hinge = evaluator.EvaluateMeanHinge(triples);
}

/// Sum over shards of one StatsJson path's change.
double ShardDelta(const std::vector<FlatJson>& before,
                  const std::vector<FlatJson>& after, const char* path) {
  double sum = 0.0;
  for (size_t s = 0; s < after.size(); ++s) {
    sum += after[s].Num(path) - before[s].Num(path);
  }
  return sum;
}

/// Snapshot of every shard's StatsJson; empty on failure.
std::vector<FlatJson> ShardStats(
    const std::vector<std::unique_ptr<net::NetClient>>& clients) {
  std::vector<FlatJson> out;
  for (const auto& c : clients) {
    auto text = c->ServerStatsJson();
    if (!text.ok()) return {};
    auto json = ParseJson(text.value());
    if (!json) return {};
    out.push_back(std::move(*json));
  }
  return out;
}

/// DistTrainer job against two spawned pkgm_psd shards.
void RunPsJob(const RunOptions& run, const TraceContext& trace,
              bool replay_layers, Job* job, PassResult* result) {
  const CpuTimes host_before = HostCpuTimes();
  const auto start = Clock::now();
  kg::SyntheticPkg pkg = GenerateKg(run.seed);
  dist::LocalShardClusterOptions copt;
  copt.psd_binary = run.bin_dir + "/pkgm_psd";
  copt.work_dir = run.work_dir;
  copt.num_shards = kShards;
  copt.model = ModelOptions(pkg, run.seed);
  copt.optimizer = core::OptimizerKind::kSgd;
  copt.learning_rate = kLearningRate;
  copt.io_threads = 1;
  dist::LocalShardCluster cluster(copt);
  Status st = cluster.Start();
  if (!st.ok()) {
    result->Fail("pkgm_psd shards did not start: " + st.ToString());
    job->epoch_failed = true;
    return;
  }
  dist::DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints();
  dopt.num_workers = kWorkers;
  dopt.batch_size = kBatch;
  dopt.learning_rate = kLearningRate;
  dopt.margin = kMargin;
  dopt.seed = run.seed;
  dist::DistTrainer trainer(&pkg.observed, dopt);
  st = trainer.Connect();
  if (!st.ok()) {
    result->Fail("DistTrainer::Connect: " + st.ToString());
    job->epoch_failed = true;
    return;
  }
  job->setup_s = SecondsSince(start);
  job->setup_steal = StealShare(host_before, HostCpuTimes());

  // Side connections for the shards' stats (and the round-trip replays).
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (const std::string& ep : cluster.endpoints()) {
    const size_t colon = ep.rfind(':');
    auto c = net::NetClient::Connect(
        ep.substr(0, colon),
        static_cast<uint16_t>(std::atoi(ep.c_str() + colon + 1)));
    if (!c.ok()) {
      result->Fail("connect to pkgm_psd: " + c.status().ToString());
      job->epoch_failed = true;
      return;
    }
    clients.push_back(std::move(c.value()));
  }
  const std::vector<pid_t> shard_pids = ChildPids("pkgm_psd");
  auto cpu_now = [&] {
    double s = SelfCpuSeconds();
    for (pid_t pid : shard_pids) s += PidCpuSeconds(pid);
    return s;
  };

  const std::vector<FlatJson> before = ShardStats(clients);
  for (uint32_t e = 0; e < kEpochs; ++e) {
    auto run_epoch = [&]() -> std::optional<core::EpochStats> {
      auto stats = trainer.RunEpoch();
      if (!stats.ok()) {
        result->Fail("DistTrainer::RunEpoch: " + stats.status().ToString());
        return std::nullopt;
      }
      return stats.value();
    };
    if (!TimedEpoch(run_epoch, cpu_now, trace, "dist.run_epoch", job)) break;
  }
  const std::vector<FlatJson> after = ShardStats(clients);
  job->peak_rss_mb = PidPeakRssMb(::getpid());
  for (pid_t pid : shard_pids) job->peak_rss_mb += PidPeakRssMb(pid);
  job->rows_pulled = trainer.rows_pulled();
  job->rows_pushed = trainer.rows_pushed();

  if (before.size() != kShards || after.size() != kShards) {
    result->Fail("pkgm_psd did not answer the stats probe");
  } else {
    for (const FlatJson& s : after) {
      if (s.Num("rejects", -1.0) != 0.0) result->Fail("pkgm_psd rejected pushes");
      if (s.Num("net.protocol_errors", -1.0) != 0.0) {
        result->Fail("pkgm_psd reported protocol errors");
      }
    }
    job->shard_bytes = ShardDelta(before, after, "net.bytes_in") +
                       ShardDelta(before, after, "net.bytes_out");
    job->shard_frames = ShardDelta(before, after, "net.frames_in") +
                        ShardDelta(before, after, "net.frames_out");
    job->shard_syscalls = ShardDelta(before, after, "net.io_wait_calls") +
                          ShardDelta(before, after, "net.io_recv_syscalls") +
                          ShardDelta(before, after, "net.io_send_syscalls");
    result->notes["io_backend.shards"] = after[0].Str("net.io_backend");
  }

  st = trainer.PullFullModel();
  if (!st.ok()) result->Fail("DistTrainer::PullFullModel: " + st.ToString());
  job->final_hinge = trainer.EvaluateMeanHinge();

  if (replay_layers && trace.tracer != nullptr) {
    TrainReplayInputs in;
    in.kg = &pkg.observed;
    in.model = trainer.replica();
    in.shard0 = clients[0].get();
    in.num_shards = kShards;
    in.batch_size = kBatch;
    in.margin = kMargin;
    in.seed = run.seed;
    ReplayTrainLayers(in, trace, result);
  }
}

}  // namespace

PassResult RunTrainPass(const RunOptions& run, const TrainPassOptions& opts,
                        const TraceContext& trace) {
  PassResult result;
  std::vector<Job> jobs;
  // Epochs weighted by their seconds, and set-ups, with their host steal.
  std::vector<Unit> epoch_units, setup_units;
  const auto start = Clock::now();
  while (static_cast<int>(jobs.size()) < opts.min_jobs ||
         ((QuietWeight(epoch_units) < opts.seconds ||
           QuietWeight(setup_units) < opts.min_jobs) &&
          SecondsSince(start) < kMaxWantFactor * opts.seconds)) {
    Job job;
    if (opts.distributed) {
      RunPsJob(run, trace, jobs.empty(), &job, &result);
    } else {
      RunLocalJob(run, trace, &job);
    }
    result.attempted += std::max<uint64_t>(job.epochs_run, 1);
    if (job.epoch_failed) {
      ++result.failed;
      break;
    }
    if (!(job.last_hinge < job.first_hinge)) {
      result.Fail("mean hinge did not fall across epochs");
    }
    setup_units.push_back(Unit{1.0, job.setup_steal});
    for (const Epoch& e : job.epochs) {
      epoch_units.push_back(Unit{e.us * 1e-6, e.steal});
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) return result;

  std::vector<double> hinge;
  std::vector<Epoch> epochs;
  double peak = 0.0;
  Job total;
  for (const Job& j : jobs) {
    peak = std::max(peak, j.peak_rss_mb);
    hinge.push_back(j.final_hinge);
    epochs.insert(epochs.end(), j.epochs.begin(), j.epochs.end());
    total.triples += j.triples;
    total.active_pairs += j.active_pairs;
    total.rows_pulled += j.rows_pulled;
    total.rows_pushed += j.rows_pushed;
    total.shard_bytes += j.shard_bytes;
    total.shard_frames += j.shard_frames;
    total.shard_syscalls += j.shard_syscalls;
  }
  // Timed figures come from the quiet epochs and set-ups (see
  // kStealCeiling), topped up with the least-stolen others when too few
  // were quiet.
  std::vector<double> setup, rate, us, cpu;
  for (size_t i : ChooseQuietUnits(setup_units, opts.min_jobs)) {
    setup.push_back(jobs[i].setup_s);
  }
  for (size_t i : ChooseQuietUnits(epoch_units, opts.seconds)) {
    rate.push_back(Ratio(epochs[i].triples, epochs[i].us * 1e-6));
    us.push_back(epochs[i].us);
    cpu.push_back(Ratio(epochs[i].cpu_s * 1e6, epochs[i].triples));
  }
  auto& m = result.metrics;
  m["setup_s"] = Median(setup);
  m["throughput_per_s"] = Median(rate);
  m["latency_p50_us"] = Median(us);
  m["cpu_us_per_op"] = Median(cpu);
  // The highest reading over the jobs: one job's VmHWM lands on one of two
  // levels about 8 MB apart from run to run, the highest over a run's jobs
  // on the upper one. In a traced pass the replays after its first job
  // raise it too.
  m["peak_rss_mb"] = peak;
  m["final_hinge"] = Median(hinge);
  result.notes["jobs"] = std::to_string(jobs.size());
  result.notes["epochs.chosen_all"] =
      std::to_string(rate.size()) + " / " + std::to_string(epochs.size());
  result.notes["epochs_per_job"] = std::to_string(kEpochs);
  result.notes["triples_per_epoch"] = std::to_string(
      jobs[0].triples / std::max<uint64_t>(jobs[0].epochs_run, 1));
  if (trace.tracer == nullptr) return result;

  const double triples = static_cast<double>(total.triples);
  m["core.active_pair_share"] =
      Ratio(static_cast<double>(total.active_pairs), triples);
  if (opts.distributed) {
    m["dist.pull_rows_per_triple"] =
        Ratio(static_cast<double>(total.rows_pulled), triples);
    m["dist.push_rows_per_triple"] =
        Ratio(static_cast<double>(total.rows_pushed), triples);
    m["dist.bytes_per_triple"] = Ratio(total.shard_bytes, triples);
    m["net.ps_frames_per_syscall"] =
        Ratio(total.shard_frames, total.shard_syscalls);
  }
  return result;
}

}  // namespace pkgm::perfbench
