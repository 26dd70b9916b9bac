#include "serve_workload.h"

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "aggregate.h"
#include "core/trainer.h"
#include "infer/pipeline.h"
#include "net/client_io.h"
#include "net/net_client.h"
#include "proc.h"
#include "tools/serve_common.h"
#include "util/rng.h"

namespace pkgm::perfbench {
namespace {

/// pkgm_netd's default --seed; its inference models use seed + 100.
constexpr uint64_t kDaemonSeed = 2021;
constexpr uint32_t kCallers = 2;
/// Requests each caller cycles through; far more than the catalog, so the
/// cycle adds no reuse the Zipf draw does not already have.
constexpr size_t kStreamLength = 1 << 16;
/// Mixed requests per caller after the catalog sweep, before timing.
constexpr size_t kWarmupRequests = 2000;
/// One answer in this many is checked against the replica.
constexpr uint64_t kCheckEvery = 64;
/// The timed window is cut into slices this long and runs until its quiet
/// slices (see kStealCeiling) add up to the wanted seconds; throughput,
/// latency percentiles and CPU per request are medians of the per-slice
/// figures over those slices. Short slices find the quiet stretches between
/// bursts of host steal, and a median keeps one odd slice from moving the
/// result.
constexpr double kSliceSeconds = 0.25;
constexpr int kStartupTimeoutMs = 60000;

struct Completion {
  Clock::time_point end;
  float latency_us = 0.0f;
  uint8_t kind = 0;
  bool ok = false;
};

struct CallerResult {
  std::vector<Completion> done;
  std::vector<std::pair<serve::ServiceRequest, serve::ServiceResponse>>
      samples;
  std::vector<Span> spans;
};

bool SameBits(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool SameAnswer(const serve::ServiceResponse& a,
                const serve::ServiceResponse& b) {
  if (a.code != b.code || a.vectors.size() != b.vectors.size() ||
      a.class_ids != b.class_ids ||
      a.class_probs.size() != b.class_probs.size() ||
      !SameBits(&a.score, &b.score, 1) ||
      !SameBits(a.class_probs.data(), b.class_probs.data(),
                a.class_probs.size())) {
    return false;
  }
  for (size_t i = 0; i < a.vectors.size(); ++i) {
    if (a.vectors[i].size() != b.vectors[i].size() ||
        !SameBits(a.vectors[i].data(), b.vectors[i].data(),
                  a.vectors[i].size())) {
      return false;
    }
  }
  return true;
}

/// One closed-loop caller: submits the next request only after its own
/// previous answer arrived, until `stop` is set. `submit` returns a future.
template <typename Submit>
void RunCaller(Submit submit, const std::vector<serve::ServiceRequest>& stream,
               const std::atomic<bool>* stop, uint32_t caller,
               const char* span_name, const TraceContext& trace,
               CallerResult* out) {
  const uint64_t id_base = static_cast<uint64_t>(caller + 1) << 40;
  for (uint64_t seq = 0; !stop->load(std::memory_order_relaxed); ++seq) {
    const serve::ServiceRequest& req = stream[seq % stream.size()];
    const auto t0 = Clock::now();
    serve::ServiceResponse resp = submit(req).get();
    const auto t1 = Clock::now();
    const int kind = static_cast<int>(req.task);
    out->done.push_back(Completion{
        t1,
        static_cast<float>(
            std::chrono::duration<double, std::micro>(t1 - t0).count()),
        static_cast<uint8_t>(kind), resp.code == serve::ResponseCode::kOk});
    if (trace.tracer != nullptr) {
      out->spans.push_back(Span{span_name, id_base | seq, trace.root, t0, t1,
                                serve::TaskKindName(req.task), 1});
    }
    if (seq % kCheckEvery == 0) out->samples.emplace_back(req, std::move(resp));
  }
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Runs `kCallers` closed-loop callers until `window()` returns.
template <typename SubmitFor, typename Window>
void RunCallers(SubmitFor submit_for,
                const std::vector<std::vector<serve::ServiceRequest>>& streams,
                Window window, const char* span_name,
                const TraceContext& trace, std::vector<CallerResult>* out) {
  out->assign(kCallers, CallerResult{});
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      RunCaller(submit_for(c), streams[c], &stop, c, span_name, trace,
                &(*out)[c]);
    });
  }
  window();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  if (trace.tracer != nullptr) {
    for (CallerResult& r : *out) trace.tracer->Append(&r.spans);
  }
}

/// Fills the caches: one lookup per catalog item, then a short run of the
/// mix drawn from a stream the timed window does not use.
template <typename SubmitFor>
void WarmUp(SubmitFor submit_for, uint64_t seed, uint32_t num_items,
            uint32_t num_users) {
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      auto submit = submit_for(c);
      for (uint32_t item = c; item < num_items; item += kCallers) {
        serve::ServiceRequest req;
        req.item = item;
        submit(req).get();
      }
      for (const serve::ServiceRequest& req :
           GenerateMix(seed ^ 0x5741524d55505eedULL, c, kWarmupRequests,
                       num_items, num_users)) {
        submit(req).get();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

struct Netd {
  ChildProcess proc;
  uint16_t port = 0;
  std::string stats_path;
};

/// Spawns `pkgm_netd --infer 1` with default settings and returns the
/// seconds from spawn to its first successful Ping (negative on failure).
double LaunchNetd(const RunOptions& run, int index, Netd* d) {
  const std::string base = run.work_dir + "/netd" + std::to_string(index);
  const std::string port_file = base + ".port";
  d->stats_path = base + ".stats.json";
  std::remove(port_file.c_str());
  std::remove(d->stats_path.c_str());
  const auto start = Clock::now();
  if (!d->proc.Spawn({run.bin_dir + "/pkgm_netd", "--infer", "1",
                      "--port-file", port_file, "--stats-json", d->stats_path},
                     base + ".log")) {
    return -1.0;
  }
  d->port = WaitForPortFile(port_file, &d->proc, kStartupTimeoutMs);
  if (d->port == 0) return -1.0;
  net::NetClientOptions copt;
  copt.num_connections = 1;
  while (SecondsSince(start) * 1000.0 < kStartupTimeoutMs) {
    auto client = net::NetClient::Connect("127.0.0.1", d->port, copt);
    if (client.ok() && client.value()->Ping().ok()) return SecondsSince(start);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1.0;
}

/// SIGTERM drain: the daemon must exit 0 and report no protocol errors.
void StopNetd(Netd* d, PassResult* result) {
  // pkgm_netd writes its port file before it installs its SIGTERM handler,
  // so a launch stopped right after its first Ping may not have it yet.
  WaitUntilCatches(&d->proc, SIGTERM, kStartupTimeoutMs);
  const int code = d->proc.Terminate();
  if (code != 0) {
    result->Fail("pkgm_netd exited with code " + std::to_string(code) +
                 " after SIGTERM");
  }
  const auto stats = ParseJson(ReadFile(d->stats_path));
  if (!stats) {
    result->Fail("pkgm_netd wrote no final stats to " + d->stats_path);
  } else if (stats->Num("net.protocol_errors", -1.0) != 0.0) {
    result->Fail("pkgm_netd reported protocol errors");
  }
}

}  // namespace

ServeReplica::~ServeReplica() {
  if (server != nullptr) server->Stop();
}

std::unique_ptr<ServeReplica> BuildServeReplica(uint64_t seed) {
  auto r = std::make_unique<ServeReplica>();
  const tasks::PipelineOptions popt = tool::ServePipelineOptions(kDaemonSeed);
  r->pipeline = tasks::BuildAndPretrain(popt);
  infer::InferPipelineOptions iopt;
  iopt.seed = kDaemonSeed + 100;
  infer::InferBundle bundle = infer::TrainInferModels(r->pipeline, iopt);
  r->num_users = bundle.num_users;
  r->models.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  r->models.PublishClassifier(std::move(bundle.classifier), bundle.variant);
  r->models.PublishAligner(std::move(bundle.aligner), bundle.variant);
  r->engine = std::make_unique<infer::InferenceEngine>(
      &r->models, r->pipeline.services.get(), std::move(bundle.titles));
  // pkgm_netd's defaults: 2 workers, queue 256, cache on.
  serve::KnowledgeServerOptions sopt;
  sopt.num_workers = 2;
  sopt.queue_capacity = 256;
  sopt.enable_cache = true;
  r->server = std::make_unique<serve::KnowledgeServer>(
      r->pipeline.services.get(), sopt);
  r->server->AttachInferExecutor(r->engine.get());
  r->server->Start();
  r->num_items = r->pipeline.services->num_items();

  core::TrainerOptions eopt = popt.trainer;
  eopt.seed = seed;
  core::Trainer evaluator(r->pipeline.model.get(), &r->pipeline.pkg.observed,
                          eopt);
  std::vector<kg::Triple> triples;
  r->pipeline.pkg.observed.AppendTriples(&triples);
  // Several negative draws per triple: the serving KG is small, and one
  // draw leaves the figure a few percent apart between seeds.
  constexpr int kDraws = 8;
  for (int i = 0; i < kDraws; ++i) {
    r->served_model_hinge += evaluator.EvaluateMeanHinge(triples) / kDraws;
  }
  return r;
}

std::vector<serve::ServiceRequest> GenerateMix(uint64_t seed, uint32_t caller,
                                               size_t count,
                                               uint32_t num_items,
                                               uint32_t num_users) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + caller + 1);
  const ZipfSampler zipf(num_items, 1.1);
  std::vector<serve::ServiceRequest> out(count);
  for (serve::ServiceRequest& req : out) {
    const double u = rng.UniformDouble();
    req.task = u < 0.4   ? serve::TaskKind::kLookup
               : u < 0.6 ? serve::TaskKind::kRecommend
               : u < 0.8 ? serve::TaskKind::kClassify
                         : serve::TaskKind::kAlign;
    req.item = static_cast<uint32_t>(zipf.Sample(&rng));
    if (req.task == serve::TaskKind::kRecommend) {
      req.user = static_cast<uint32_t>(rng.Uniform(num_users));
    } else if (req.task == serve::TaskKind::kClassify) {
      req.top_k = 3;
    } else if (req.task == serve::TaskKind::kAlign) {
      req.item_b = static_cast<uint32_t>(zipf.Sample(&rng));
    }
  }
  return out;
}

PassResult RunServePass(const RunOptions& run, const ServePassOptions& opts,
                        ServeReplica* replica, const TraceContext& trace) {
  PassResult result;
  std::vector<std::vector<serve::ServiceRequest>> streams;
  for (uint32_t c = 0; c < kCallers; ++c) {
    streams.push_back(GenerateMix(run.seed, c, kStreamLength,
                                  replica->num_items, replica->num_users));
  }

  // Set-up: launch the daemon until enough launches were quiet, and keep
  // the last one.
  std::vector<double> setups;
  std::vector<Unit> launches;
  Netd netd;
  for (int i = 0; i < kMaxWantFactor * opts.launches &&
                  QuietWeight(launches) < opts.launches;
       ++i) {
    if (i > 0) StopNetd(&netd, &result);
    const CpuTimes host_before = HostCpuTimes();
    const double s = LaunchNetd(run, i, &netd);
    if (s < 0.0) {
      result.Fail("pkgm_netd did not answer a Ping (see " + run.work_dir +
                  "/netd" + std::to_string(i) + ".log)");
      return result;
    }
    launches.push_back(Unit{1.0, StealShare(host_before, HostCpuTimes())});
    setups.push_back(s);
  }

  net::NetClientOptions copt;
  copt.num_connections = 1;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (uint32_t c = 0; c < kCallers; ++c) {
    auto client = net::NetClient::Connect("127.0.0.1", netd.port, copt);
    if (!client.ok()) {
      result.Fail("connect to pkgm_netd: " + client.status().ToString());
      StopNetd(&netd, &result);
      return result;
    }
    clients.push_back(std::move(client.value()));
  }
  auto remote = [&](uint32_t c) {
    return [client = clients[c].get()](const serve::ServiceRequest& req) {
      return client->Submit(req);
    };
  };
  WarmUp(remote, run.seed, replica->num_items, replica->num_users);

  const auto stats_before = clients[0]->ServerStatsJson();
  const CpuTimes host_before = HostCpuTimes();
  std::vector<CallerResult> callers;
  // Daemon CPU seconds and host CPU counters at every slice boundary.
  std::vector<double> cpu_marks;
  std::vector<CpuTimes> host_marks;
  std::vector<Unit> slices;
  const auto start = Clock::now();
  auto window = [&] {
    for (int k = 0;; ++k) {
      std::this_thread::sleep_until(start + Seconds(k * kSliceSeconds));
      cpu_marks.push_back(PidCpuSeconds(netd.proc.pid()));
      host_marks.push_back(HostCpuTimes());
      if (k > 0) {
        slices.push_back(Unit{kSliceSeconds,
                              StealShare(host_marks[k - 1], host_marks[k])});
      }
      if (QuietWeight(slices) >= opts.window_seconds ||
          k * kSliceSeconds >= kMaxWantFactor * opts.window_seconds) {
        return;
      }
    }
  };
  RunCallers(remote, streams, window, "client.request", trace, &callers);
  const CpuTimes host_after = HostCpuTimes();
  const auto stats_after = clients[0]->ServerStatsJson();
  const double peak_rss = PidPeakRssMb(netd.proc.pid());
  clients.clear();
  StopNetd(&netd, &result);

  // Whole-window and per-slice aggregates. A request belongs to the slice
  // its answer arrived in; the callers' last answers, past the window's
  // end, count only toward the whole-window figures.
  const size_t num_slices = slices.size();
  std::vector<double> all;
  std::vector<double> by_kind[4];
  std::vector<std::vector<double>> slice_latency(num_slices);
  std::vector<uint64_t> slice_ok(num_slices, 0);
  uint64_t ok = 0;
  for (const CallerResult& r : callers) {
    for (const Completion& c : r.done) {
      ++result.attempted;
      ok += c.ok ? 1 : 0;
      all.push_back(c.latency_us);
      by_kind[c.kind].push_back(c.latency_us);
      const size_t slice = static_cast<size_t>(
          std::chrono::duration<double>(c.end - start).count() / kSliceSeconds);
      if (slice < num_slices) {
        slice_latency[slice].push_back(c.latency_us);
        slice_ok[slice] += c.ok ? 1 : 0;
      }
    }
  }
  result.failed = result.attempted - ok;
  const std::vector<size_t> chosen =
      ChooseQuietUnits(slices, opts.window_seconds);
  std::vector<double> rate, p50, p99, cpu, chosen_steal, all_steal;
  for (size_t k : chosen) {
    const double n = static_cast<double>(slice_latency[k].size());
    rate.push_back(static_cast<double>(slice_ok[k]) / kSliceSeconds);
    p50.push_back(Percentile(slice_latency[k], 0.50));
    p99.push_back(Percentile(slice_latency[k], 0.99));
    cpu.push_back(Ratio((cpu_marks[k + 1] - cpu_marks[k]) * 1e6, n));
    chosen_steal.push_back(slices[k].steal);
  }
  for (const Unit& u : slices) all_steal.push_back(u.steal);

  // Output check: sampled answers against the in-process replica.
  uint64_t checked = 0, differ = 0;
  for (const CallerResult& r : callers) {
    for (const auto& [req, resp] : r.samples) {
      ++checked;
      if (!SameAnswer(resp, replica->server->Submit(req).get())) ++differ;
    }
  }
  if (differ > 0) {
    result.Fail(std::to_string(differ) + " of " + std::to_string(checked) +
                " sampled answers differ from the in-process replica");
  }
  result.notes["checked_answers"] = std::to_string(checked);

  auto& m = result.metrics;
  std::vector<double> quiet_setups;
  for (size_t i : ChooseQuietUnits(launches, opts.launches)) {
    quiet_setups.push_back(setups[i]);
  }
  m["setup_s"] = Median(quiet_setups);
  m["throughput_per_s"] = Median(rate);
  m["latency_p50_us"] = Median(p50);
  m["cpu_us_per_op"] = Median(cpu);
  m["peak_rss_mb"] = peak_rss;
  m["final_hinge"] = replica->served_model_hinge;
  result.notes["latency_samples"] = std::to_string(all.size());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f / %.1f / %.1f",
                Percentile(all, 0.5), Percentile(all, 0.99),
                Percentile(all, 0.999));
  result.notes["latency_us.window_p50_p99_p999"] = buf;
  result.notes["slices.quiet_all"] =
      std::to_string(static_cast<size_t>(QuietWeight(slices) / kSliceSeconds)) +
      " / " + std::to_string(num_slices);
  result.notes["launches.quiet_all"] =
      std::to_string(static_cast<size_t>(QuietWeight(launches))) + " / " +
      std::to_string(launches.size());
  std::snprintf(buf, sizeof(buf), "%.4f / %.4f", Median(chosen_steal),
                Median(all_steal));
  result.notes["slice_steal.chosen_all_median"] = buf;
  for (int k = 0; k < 4; ++k) {
    std::snprintf(buf, sizeof(buf), "%.1f", Percentile(by_kind[k], 0.5));
    result.notes[std::string("latency_p50_us.") +
                 serve::TaskKindName(static_cast<serve::TaskKind>(k))] = buf;
  }
  std::snprintf(buf, sizeof(buf), "%.4f", StealShare(host_before, host_after));
  result.notes["steal_share.serve"] = buf;

  if (!stats_before.ok() || !stats_after.ok()) {
    result.Fail("pkgm_netd did not answer the stats probe");
    return result;
  }
  const auto before = ParseJson(stats_before.value());
  const auto after = ParseJson(stats_after.value());
  if (!before || !after) {
    result.Fail("pkgm_netd stats are not valid JSON");
    return result;
  }
  result.notes["io_backend.daemon"] = after->Str("net.io_backend");
  result.notes["io_backend.client"] = net::CreateClientIo("")->name();
  if (trace.tracer == nullptr) return result;

  // Per-layer numbers of the traced pass. The p99 is not an end-to-end
  // metric: under sustained host steal it grew 10-16x where the p50 grew
  // 2x, so two such runs in ten put its spread past any usable bound.
  m["client.latency_p99_us"] = Median(p99);
  const auto d = JsonDelta(*before, *after);
  auto delta = [&](const char* path) {
    auto it = d.find(path);
    return it == d.end() ? 0.0 : it->second;
  };
  const double frames = delta("net.frames_in") + delta("net.frames_out");
  const double syscalls = delta("net.io_wait_calls") +
                          delta("net.io_recv_syscalls") +
                          delta("net.io_send_syscalls");
  m["net.frames_per_syscall"] = Ratio(frames, syscalls);
  m["net.wait_calls_per_frame"] =
      Ratio(delta("net.io_wait_calls"), delta("net.frames_in"));
  m["net.bytes_per_request"] =
      Ratio(delta("net.bytes_in") + delta("net.bytes_out"),
            delta("net.requests_in"));
  // Histograms are cumulative since daemon start (warm-up included): the
  // snapshot carries quantiles, not buckets, so they cannot be windowed.
  m["serve.queue_us_p50"] = after->Num("latency.queue.p50_us");
  m["serve.queue_us_p99"] = after->Num("latency.queue.p99_us");
  m["serve.execute_us_p50"] = after->Num("latency.execute.p50_us");
  m["serve.execute_us_p99"] = after->Num("latency.execute.p99_us");
  m["serve.cache_hit_share"] =
      Ratio(delta("cache.hits"), delta("cache.hits") + delta("cache.misses"));
  m["serve.backend_fetches_per_lookup"] =
      Ratio(delta("backend_fetches"), delta("tasks.lookup"));
  for (int k = 0; k < 4; ++k) {
    const char* kind = serve::TaskKindName(static_cast<serve::TaskKind>(k));
    m[std::string("client.latency_p50_us.") + kind] =
        Percentile(trace.tracer->Micros("client.request", kind), 0.5);
  }

  // The same streams on the in-process replica: no socket, no codec.
  auto local = [&](uint32_t) {
    return [server = replica->server.get()](const serve::ServiceRequest& req) {
      return server->Submit(req);
    };
  };
  WarmUp(local, run.seed, replica->num_items, replica->num_users);
  std::vector<CallerResult> local_callers;
  RunCallers(
      local, streams,
      [&] { std::this_thread::sleep_for(Seconds(opts.window_seconds / 2)); },
      "replay.in_process_request", trace, &local_callers);
  m["net.transport_us_p50"] =
      Percentile(trace.tracer->Micros("client.request"), 0.5) -
      Percentile(trace.tracer->Micros("replay.in_process_request"), 0.5);
  return result;
}

}  // namespace pkgm::perfbench
