#include "layers.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "aggregate.h"
#include "core/gradients.h"
#include "core/negative_sampler.h"
#include "net/wire.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/rng.h"

namespace pkgm::perfbench {
namespace {

/// Requests in the recorded mix; codec spans time loops of kCodecLoop.
constexpr size_t kRecordedRequests = 4096;
constexpr size_t kCodecLoop = 256;
/// Forward / condensed replays per task kind.
constexpr size_t kForwardsPerKind = 200;
/// Recorded training batches, and shard round trips per kind.
constexpr size_t kBatches = 8;
constexpr size_t kRoundTrips = 100;
constexpr size_t kKernelLoop = 20000;
constexpr int kKernelRepeats = 5;

/// Runs one complete frame through the stream decoder, as a receiving peer
/// does. False on a protocol error.
bool Reframe(const std::string& bytes, net::Frame* frame) {
  net::FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  std::string error;
  return decoder.Next(frame, &error) == net::FrameDecoder::Result::kFrame;
}

std::string EncodeRequest(const serve::ServiceRequest& req,
                          serve::ServeClock::time_point now) {
  const std::vector<serve::ServiceRequest> one{req};
  switch (req.task) {
    case serve::TaskKind::kLookup: return net::EncodeGetVectors(1, one, now);
    case serve::TaskKind::kRecommend: return net::EncodeRecommend(1, one, now);
    case serve::TaskKind::kClassify: return net::EncodeClassify(1, one, now);
    case serve::TaskKind::kAlign: return net::EncodeAlign(1, one, now);
  }
  return "";
}

Status DecodeRequest(serve::TaskKind task, std::string_view payload,
                     serve::ServeClock::time_point now,
                     std::vector<serve::ServiceRequest>* out) {
  switch (task) {
    case serve::TaskKind::kLookup:
      return net::DecodeGetVectors(payload, now, out);
    case serve::TaskKind::kRecommend:
      return net::DecodeRecommend(payload, now, out);
    case serve::TaskKind::kClassify:
      return net::DecodeClassify(payload, now, out);
    case serve::TaskKind::kAlign:
      return net::DecodeAlign(payload, now, out);
  }
  return Status::Internal("unknown task kind");
}

std::string EncodeReply(serve::TaskKind task,
                        const serve::ServiceResponse& resp) {
  const std::vector<serve::ServiceResponse> one{resp};
  switch (task) {
    case serve::TaskKind::kLookup: return net::EncodeVectors(1, one);
    case serve::TaskKind::kRecommend:
      return net::EncodeScoreReply(net::FrameType::kRecommendReply, 1, one);
    case serve::TaskKind::kClassify: return net::EncodeClassifyReply(1, one);
    case serve::TaskKind::kAlign:
      return net::EncodeScoreReply(net::FrameType::kAlignReply, 1, one);
  }
  return "";
}

Status DecodeReply(serve::TaskKind task, std::string_view payload,
                   std::vector<serve::ServiceResponse>* out) {
  switch (task) {
    case serve::TaskKind::kLookup: return net::DecodeVectors(payload, out);
    case serve::TaskKind::kClassify:
      return net::DecodeClassifyReply(payload, out);
    case serve::TaskKind::kRecommend:
    case serve::TaskKind::kAlign:
      return net::DecodeScoreReply(payload, out);
  }
  return Status::Internal("unknown task kind");
}

/// Times encode -> reframe -> decode over `mix` in loops of kCodecLoop.
template <typename Codec>
bool TimeCodec(const char* span_name, size_t n, const TraceContext& trace,
               Codec codec) {
  bool ok = true;
  for (size_t begin = 0; begin < n; begin += kCodecLoop) {
    const size_t end = std::min(n, begin + kCodecLoop);
    ScopedSpan span(trace.tracer, span_name, trace.root, "", end - begin);
    for (size_t i = begin; i < end; ++i) ok &= codec(i);
  }
  return ok;
}

double P50(const Tracer& tracer, const char* name, const char* tag = nullptr) {
  return Percentile(tracer.Micros(name, tag), 0.5);
}

}  // namespace

void ReplayServeLayers(ServeReplica* replica, uint64_t seed,
                       const TraceContext& trace, PassResult* result) {
  const std::vector<serve::ServiceRequest> mix =
      GenerateMix(seed ^ 0x5245504c4159ULL, 0, kRecordedRequests,
                  replica->num_items, replica->num_users);
  std::vector<serve::ServiceResponse> replies;
  replies.reserve(mix.size());
  for (const serve::ServiceRequest& req : mix) {
    replies.push_back(replica->server->Submit(req).get());
  }

  const auto now = serve::ServeClock::now();
  std::vector<serve::ServiceRequest> decoded_requests;
  std::vector<serve::ServiceResponse> decoded_replies;
  net::Frame frame;
  const bool requests_ok =
      TimeCodec("replay.wire.request_codec", mix.size(), trace, [&](size_t i) {
        return Reframe(EncodeRequest(mix[i], now), &frame) &&
               DecodeRequest(mix[i].task, frame.payload, now,
                             &decoded_requests)
                   .ok() &&
               decoded_requests.size() == 1 &&
               decoded_requests[0].item == mix[i].item;
      });
  const bool replies_ok =
      TimeCodec("replay.wire.reply_codec", mix.size(), trace, [&](size_t i) {
        return Reframe(EncodeReply(mix[i].task, replies[i]), &frame) &&
               DecodeReply(mix[i].task, frame.payload, &decoded_replies)
                   .ok() &&
               decoded_replies.size() == 1 &&
               decoded_replies[0].code == replies[i].code;
      });
  if (!requests_ok || !replies_ok) {
    result->Fail("wire codec replay did not round-trip the recorded mix");
  }

  size_t done[4] = {0, 0, 0, 0};
  std::vector<serve::ServiceResponse> responses;
  for (const serve::ServiceRequest& req : mix) {
    if (done[static_cast<int>(req.task)]++ >= kForwardsPerKind) continue;
    if (req.task == serve::TaskKind::kLookup) {
      ScopedSpan span(trace.tracer, "replay.core.condensed", trace.root);
      const Vec v = replica->pipeline.services->Condensed(req.item, req.mode);
      if (v.empty()) result->Fail("condensed replay returned no vector");
      continue;
    }
    const std::vector<const serve::ServiceRequest*> batch{&req};
    responses.assign(1, serve::ServiceResponse{});
    {
      ScopedSpan span(trace.tracer, "replay.infer.forward", trace.root,
                      serve::TaskKindName(req.task));
      replica->engine->ExecuteBatch(req.task, batch, &responses);
    }
    if (responses.size() != 1 ||
        responses[0].code != serve::ResponseCode::kOk) {
      result->Fail(std::string("inference replay failed for ") +
                   serve::TaskKindName(req.task));
    }
  }
}

void ReplayTrainLayers(const TrainReplayInputs& in, const TraceContext& trace,
                       PassResult* result) {
  const core::PkgmModel& model = *in.model;
  const uint32_t dim = model.dim();
  std::vector<kg::Triple> triples;
  in.kg->AppendTriples(&triples);
  Rng rng(in.seed ^ 0x42415443ULL);
  for (size_t i = triples.size(); i > 1; --i) {
    std::swap(triples[i - 1], triples[rng.Uniform(i)]);
  }
  const size_t batch = std::min<size_t>(in.batch_size, triples.size());

  core::NegativeSampler::Options nopt;
  nopt.num_entities = model.num_entities();
  nopt.num_relations = model.num_relations();
  const core::NegativeSampler sampler(nopt, in.kg);
  const simd::KernelTable& kernels = simd::Active();
  core::HingeWorkspace ws;
  ws.EnsureDim(dim);
  std::vector<core::NegativeSample> negatives(batch);
  std::vector<core::GradArena> arenas(kBatches);
  std::vector<std::vector<net::RowsSection>> row_sets(kBatches);
  uint64_t arena_rows = 0;
  // One reused arena, as a trainer's worker keeps it: grown by an untimed
  // batch first, then cleared before each timed batch.
  core::GradArena work;
  for (size_t b = 0; b <= kBatches; ++b) {
    const kg::Triple* pos =
        triples.data() + (b * batch) % (triples.size() - batch + 1);
    const bool timed = b > 0;
    {
      ScopedSpan span(timed ? trace.tracer : nullptr, "replay.core.sample",
                      trace.root, "", batch);
      sampler.SampleBatch(pos, batch, &rng, negatives.data());
    }
    work.Clear();
    {
      ScopedSpan span(timed ? trace.tracer : nullptr, "replay.core.fwd_bwd",
                      trace.root, "", batch);
      for (size_t i = 0; i < batch; ++i) {
        core::FusedHingeGradients(model, pos[i], negatives[i].triple,
                                  in.margin, kernels, &ws, &work);
      }
    }
    if (!timed) continue;
    core::GradArena& arena = arenas[b - 1];
    arena = work;
    arena_rows += arena.entities().size() + arena.relations().size() +
                  arena.transfers().size() + arena.hyperplanes().size();

    // The rows a worker pulls for this batch: every entity and relation
    // the positives and negatives touch.
    std::vector<uint32_t> ents, rels;
    for (size_t i = 0; i < batch; ++i) {
      for (const kg::Triple& t : {pos[i], negatives[i].triple}) {
        ents.push_back(t.head);
        ents.push_back(t.tail);
        rels.push_back(t.relation);
      }
    }
    for (auto* ids : {&ents, &rels}) {
      std::sort(ids->begin(), ids->end());
      ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    }
    auto section = [&](net::ParamTable table, const std::vector<uint32_t>& ids,
                       uint32_t row_size, auto row) {
      net::RowsSection s;
      s.table = table;
      s.row_size = row_size;
      s.ids = ids;
      for (uint32_t id : ids) {
        const float* r = row(id);
        s.values.insert(s.values.end(), r, r + row_size);
      }
      return s;
    };
    std::vector<net::RowsSection>& rows = row_sets[b - 1];
    rows.push_back(section(net::ParamTable::kEntity, ents, dim,
                           [&](uint32_t id) { return model.entity(id); }));
    rows.push_back(section(net::ParamTable::kRelation, rels, dim,
                           [&](uint32_t id) { return model.relation(id); }));
    if (model.has_relation_module()) {
      rows.push_back(section(
          net::ParamTable::kTransfer, rels, dim * dim,
          [&](uint32_t id) { return model.transfer(id); }));
    }
  }
  result->metrics["core.rows_per_batch"] =
      static_cast<double>(arena_rows) / static_cast<double>(kBatches);

  // Push codec: shard-sliced arena blobs through EncodePushGrads, the
  // stream decoder, DecodePushGrads and DeserializeGradArena.
  bool codec_ok = true;
  std::string blob;
  net::Frame frame;
  core::GradArena scratch;
  for (const core::GradArena& arena : arenas) {
    const uint64_t rows = arena.entities().size() + arena.relations().size() +
                          arena.transfers().size() +
                          arena.hyperplanes().size();
    ScopedSpan span(trace.tracer, "replay.wire.push_codec", trace.root, "",
                    rows);
    for (uint32_t s = 0; s < in.num_shards; ++s) {
      blob.clear();
      core::SerializeGradArena(arena, s, in.num_shards, &blob);
      float scale = 0.0f;
      uint32_t epoch = 0;
      std::string_view view;
      scratch.Clear();
      codec_ok &= Reframe(net::EncodePushGrads(1, 1.0f, 0, blob), &frame) &&
                  net::DecodePushGrads(frame.payload, &scale, &epoch, &view)
                      .ok() &&
                  core::DeserializeGradArena(view, &scratch).ok();
    }
  }
  // Pull codec: the batch's row set through EncodeRows / DecodeRows.
  std::vector<net::RowsSection> decoded;
  for (const auto& sections : row_sets) {
    uint64_t rows = 0;
    for (const net::RowsSection& s : sections) rows += s.ids.size();
    ScopedSpan span(trace.tracer, "replay.wire.pull_codec", trace.root, "",
                    rows);
    codec_ok &= Reframe(net::EncodeRows(1, sections), &frame) &&
                net::DecodeRows(frame.payload, &decoded).ok() &&
                decoded.size() == sections.size();
  }
  if (!codec_ok) result->Fail("push/pull codec replay did not round-trip");

  if (in.shard0 == nullptr) return;
  // Round trips to the live shard: PullRows of batch 0's shard-0 rows, and
  // a zero-scale PushGrads of its shard-0 gradient slice (applies nothing).
  std::vector<net::PullSection> pulls;
  for (const net::RowsSection& s : row_sets[0]) {
    net::PullSection p;
    p.table = s.table;
    for (uint32_t id : s.ids) {
      if (id % in.num_shards == 0) p.ids.push_back(id);
    }
    pulls.push_back(std::move(p));
  }
  blob.clear();
  core::SerializeGradArena(arenas[0], 0, in.num_shards, &blob);
  bool rtt_ok = true;
  for (size_t i = 0; i < kRoundTrips; ++i) {
    for (const bool push : {false, true}) {
      const uint64_t cid = in.shard0->NextCorrelationId();
      const std::string bytes = push
                                    ? net::EncodePushGrads(cid, 0.0f, 0, blob)
                                    : net::EncodePullRows(cid, pulls);
      ScopedSpan span(trace.tracer,
                      push ? "replay.dist.push_rtt" : "replay.dist.pull_rtt",
                      trace.root);
      rtt_ok &= in.shard0->CallFrame(cid, bytes).get().ok();
    }
  }
  if (!rtt_ok) result->Fail("shard round-trip replay got an error reply");
}

void ReplayKernels(const TraceContext& trace) {
  const simd::KernelTable& k = simd::Active();
  Rng rng(7);
  auto fill = [&](size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = rng.UniformFloat(-1.0f, 1.0f);
    return v;
  };
  constexpr size_t d = 64;
  std::vector<float> a = fill(d * d), x = fill(d), y = fill(d);
  // TinyBERT linear layer of the served classifier: 20 tokens x 32 -> 32.
  constexpr size_t m = 20, kk = 32, n = 32;
  std::vector<float> ga = fill(m * kk), gb = fill(kk * n), bias = fill(n),
                     gc(m * n);
  const float alpha = 1e-7f;
  for (int r = 0; r < kKernelRepeats; ++r) {
    auto loop = [&](const char* name, auto body) {
      ScopedSpan span(trace.tracer, name, trace.root, "", kKernelLoop);
      for (size_t i = 0; i < kKernelLoop; ++i) body();
    };
    loop("replay.tensor.gemv",
         [&] { k.gemv_raw(d, d, a.data(), x.data(), y.data()); });
    loop("replay.tensor.gemv_t",
         [&] { k.gemv_t(d, d, a.data(), x.data(), y.data()); });
    loop("replay.tensor.ger",
         [&] { k.ger(d, d, alpha, x.data(), y.data(), a.data()); });
    loop("replay.tensor.axpy",
         [&] { k.axpy(d, alpha, x.data(), y.data()); });
    loop("replay.tensor.gemm_bias", [&] {
      k.gemm_bias(m, kk, n, ga.data(), gb.data(), bias.data(), gc.data());
    });
  }
}

std::map<std::string, double> ReplayMetrics(const Tracer& t) {
  std::map<std::string, double> m;
  m["wire.request_codec_ns"] = t.NanosPerOp("replay.wire.request_codec");
  m["wire.reply_codec_ns"] = t.NanosPerOp("replay.wire.reply_codec");
  m["wire.push_codec_ns_per_row"] = t.NanosPerOp("replay.wire.push_codec");
  m["wire.pull_codec_ns_per_row"] = t.NanosPerOp("replay.wire.pull_codec");
  for (serve::TaskKind task : {serve::TaskKind::kRecommend,
                               serve::TaskKind::kClassify,
                               serve::TaskKind::kAlign}) {
    const char* kind = serve::TaskKindName(task);
    m[std::string("infer.forward_us.") + kind] =
        P50(t, "replay.infer.forward", kind);
  }
  m["core.condensed_us"] = P50(t, "replay.core.condensed");
  m["core.sample_ns_per_triple"] = t.NanosPerOp("replay.core.sample");
  m["core.fwd_bwd_ns_per_triple"] = t.NanosPerOp("replay.core.fwd_bwd");
  m["dist.pull_rtt_us_p50"] = P50(t, "replay.dist.pull_rtt");
  m["dist.push_rtt_us_p50"] = P50(t, "replay.dist.push_rtt");
  m["tensor.gemv_ns.d64"] = t.NanosPerOp("replay.tensor.gemv");
  m["tensor.gemv_t_ns.d64"] = t.NanosPerOp("replay.tensor.gemv_t");
  m["tensor.ger_ns.d64"] = t.NanosPerOp("replay.tensor.ger");
  m["tensor.axpy_ns.d64"] = t.NanosPerOp("replay.tensor.axpy");
  m["tensor.gemm_bias_ns.tinybert"] = t.NanosPerOp("replay.tensor.gemm_bias");
  return m;
}

}  // namespace pkgm::perfbench
