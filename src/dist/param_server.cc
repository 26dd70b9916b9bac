#include "dist/param_server.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::dist {

using net::Frame;
using net::FrameType;
using net::ParamTable;
using net::WireCode;

ParamServer::ParamServer(const ParamServerOptions& options)
    : options_(options),
      model_(options.model),
      kernels_(simd::Active()),
      optimizer_(&model_, options) {
  PKGM_CHECK_GT(options_.num_shards, 0u);
  PKGM_CHECK_LT(options_.shard_index, options_.num_shards);
  // Dense moment tables for the whole shape: only owned rows are ever
  // touched, so the unowned part is wasted-but-simple (sparse moment
  // storage is a scale follow-up).
  optimizer_.AllocateMoments();
  for (uint8_t t = 0; t <= net::kMaxParamTable; ++t) {
    const ParamTable table = static_cast<ParamTable>(t);
    if (model_.row_size(table) == 0) continue;
    // Owned key k lands at k / num_shards.
    seen_[t].assign(NumKeysOf(table) / options_.num_shards + 1, 0);
  }
  if (model_.use_relation_module()) {
    transfer_logs_.resize(model_.num_relations() / options_.num_shards + 1);
  }
}

size_t ParamServer::MaxPushPayloadBytes() const {
  uint32_t counts[4] = {0, 0, 0, 0};
  uint32_t row_sizes[4] = {0, 0, 0, 0};
  for (uint8_t t = 0; t <= net::kMaxParamTable; ++t) {
    const ParamTable table = static_cast<ParamTable>(t);
    row_sizes[t] = model_.row_size(table);
    if (row_sizes[t] == 0) continue;
    // Keys k < NumKeysOf(table) with k % num_shards == shard_index.
    const uint32_t keys = NumKeysOf(table);
    counts[t] = keys > options_.shard_index
                    ? (keys - options_.shard_index - 1) / options_.num_shards +
                          1
                    : 0;
  }
  return net::kPushGradsPrefixBytes +
         core::GradArenaBlobBytes(counts, row_sizes);
}

std::pair<const float*, const float*> ParamServer::AdamMoments(
    ParamTable table, uint32_t id) const {
  return optimizer_.Moments(table, id);
}

net::ShardInfo ParamServer::Info() const {
  net::ShardInfo info;
  info.shard_index = options_.shard_index;
  info.num_shards = options_.num_shards;
  info.num_entities = model_.num_entities();
  info.num_relations = model_.num_relations();
  info.dim = model_.dim();
  info.scorer = static_cast<uint8_t>(model_.scorer());
  info.use_relation_module = model_.use_relation_module();
  info.optimizer = static_cast<uint8_t>(options_.optimizer);
  info.learning_rate = options_.learning_rate;
  info.model_seed = options_.model.seed;
  info.kernel_isa = static_cast<uint8_t>(kernels_.isa);
  return info;
}

uint32_t ParamServer::NumKeysOf(ParamTable table) const {
  return table == ParamTable::kEntity ? model_.num_entities()
                                      : model_.num_relations();
}

bool ParamServer::HandleFrame(const Frame& frame, Respond respond) {
  switch (frame.type) {
    case FrameType::kShardInfo:
      respond(net::EncodeShardInfoReply(frame.correlation_id, Info()));
      return true;
    case FrameType::kPullRows:
      respond(HandlePull(frame));
      return true;
    case FrameType::kPushGrads:
      respond(HandlePush(frame));
      return true;
    case FrameType::kBarrier:
      HandleBarrier(frame, std::move(respond));
      return true;
    default:
      return false;  // transport answers kError/kUnsupported
  }
}

std::string ParamServer::Reject(const Frame& frame, std::string_view why) {
  ++rejects_;
  return net::EncodeError(frame.correlation_id, WireCode::kInvalidItem, why);
}

std::string ParamServer::HandlePull(const Frame& frame) {
  std::vector<net::PullSection> sections;
  Status st = net::DecodePullRows(frame.payload, &sections);
  if (!st.ok()) return Reject(frame, st.message());
  ++pulls_;

  // Validate every section before gathering a row.
  std::vector<uint32_t> row_sizes(sections.size());
  uint64_t rows = 0, id_only_transfers = 0;
  for (size_t s = 0; s < sections.size(); ++s) {
    const net::PullSection& sec = sections[s];
    row_sizes[s] = model_.row_size(sec.table);
    if (row_sizes[s] == 0) {
      return Reject(frame,
                    StrFormat("table %u not present under this model "
                              "configuration",
                              static_cast<unsigned>(sec.table)));
    }
    const uint32_t num_keys = NumKeysOf(sec.table);
    for (uint32_t id : sec.ids) {
      if (id >= num_keys || !OwnsKey(id)) {
        return Reject(
            frame, StrFormat("row %u of table %u is not served by shard %u/%u",
                             static_cast<unsigned>(id),
                             static_cast<unsigned>(sec.table),
                             static_cast<unsigned>(options_.shard_index),
                             static_cast<unsigned>(options_.num_shards)));
      }
    }
    rows += sec.ids.size();
    if (sec.table == ParamTable::kTransfer && sec.versions.empty()) {
      id_only_transfers += sec.ids.size();
    }
  }
  // Unlocked reads, gathered straight into the reply frame: a concurrent
  // push may be rewriting a row, so a worker can observe a torn / slightly
  // stale value — the same benign race the in-process hogwild trainer runs
  // under. A versioned answer is read under the apply mutex instead, so its
  // version and its log tail or row belong together.
  std::string reply;
  net::AppendRowsFrame(
      frame.correlation_id, sections, row_sizes,
      [this](ParamTable table, uint32_t id) -> const float* {
        return model_.table(table).Row(id);
      },
      [this](ParamTable, uint32_t id, uint64_t version, std::string* out) {
        std::lock_guard<std::mutex> lock(apply_mu_);
        AppendTransferAnswer(id, version, out);
      },
      &reply);
  rows_pulled_.fetch_add(rows);
  transfer_rows_dense_.fetch_add(id_only_transfers);
  return reply;
}

void ParamServer::AppendTransferAnswer(uint32_t relation, uint64_t version,
                                       std::string* out) {
  const TransferLog& log = LogOf(relation);
  const uint32_t dim = model_.dim();
  // The log holds versions (log.version - log.records, log.version]; Adam
  // updates are never logged, and a version from the future is not ours.
  if (options_.optimizer != core::OptimizerKind::kAdam &&
      version <= log.version && log.version - version <= log.records) {
    size_t at = log.head;
    for (uint64_t v = log.version - log.records; v < version; ++v) {
      at += core::TransferLogRecordBytes(log.bytes.data() + at, dim);
    }
    const std::string_view tail(log.bytes.data() + at, log.bytes.size() - at);
    net::AppendLogAnswer(log.version, tail, out);
    transfer_rows_from_log_.fetch_add(1);
    transfer_log_bytes_.fetch_add(tail.size());
    return;
  }
  net::AppendDenseAnswer(log.version, model_.transfer(relation), dim * dim,
                         out);
  transfer_rows_dense_.fetch_add(1);
}

void ParamServer::LogTransferUpdate(uint32_t relation, float alpha,
                                    const core::BlobFactorGroup* group) {
  TransferLog& log = LogOf(relation);
  ++log.version;
  const uint32_t dim = model_.dim();
  // A log never holds more bytes than the dense row, so no log answer is
  // longer than the dense one.
  const size_t bound = 4 * static_cast<size_t>(dim) * dim;
  const size_t record =
      group == nullptr ? 0 : core::FactorGroupBlobBytes(dim, group->count);
  if (group == nullptr || record > bound) {
    log.bytes.clear();
    log.head = 0;
    log.records = 0;
    return;
  }
  while (log.bytes.size() - log.head + record > bound) {
    log.head += core::TransferLogRecordBytes(log.bytes.data() + log.head, dim);
    --log.records;
  }
  // Dropped records are reclaimed only once the buffer would pass twice the
  // bound, so each logged byte is moved at most once on average.
  if (log.bytes.size() + record > 2 * bound) {
    log.bytes.erase(0, log.head);
    log.head = 0;
  }
  core::AppendTransferLogRecord(alpha, *group, &log.bytes);
  ++log.records;
}

std::string ParamServer::HandlePush(const Frame& frame) {
  float scale = 0.0f;
  uint32_t epoch = 0;
  std::string_view blob;
  Status st = net::DecodePushGrads(frame.payload, &scale, &epoch, &blob);
  if (!st.ok()) return Reject(frame, st.message());

  std::lock_guard<std::mutex> lock(apply_mu_);
  // Pass 1 checks the whole blob before the model is touched, so a bad
  // push is all-or-nothing. A repeated id is refused: pass 2 applies rows
  // one by one, so it could not merge them. A factor group is checked as
  // the transfer row it rebuilds into, so a relation sent both dense and
  // as factors is a repeat too.
  if (++push_serial_ == 0) {
    for (std::vector<uint32_t>& seen : seen_) {
      std::fill(seen.begin(), seen.end(), 0);
    }
    push_serial_ = 1;
  }
  const auto check_row = [&](uint32_t slab, uint32_t id, const float*,
                             uint32_t row_size) -> Status {
    // Blob slabs are in ParamTable order.
    const ParamTable table = static_cast<ParamTable>(slab);
    const char* what = nullptr;
    if (model_.row_size(table) == 0) {
      what = "table not present";
    } else if (row_size != model_.row_size(table)) {
      what = "row size mismatch";
    } else if (id >= NumKeysOf(table) || !OwnsKey(id)) {
      what = "row not owned by shard";
    } else if (uint32_t& seen = seen_[slab][id / options_.num_shards];
               seen == push_serial_) {
      what = "duplicate row id";
    } else {
      seen = push_serial_;
      return Status::Ok();
    }
    return Status::InvalidArgument(
        StrFormat("push to table %u refused: %s (row %u)",
                  static_cast<unsigned>(slab), what,
                  static_cast<unsigned>(id)));
  };
  st = core::VisitGradArenaBlob(
      blob, check_row, [&](const core::BlobFactorGroup& group) {
        return check_row(static_cast<uint32_t>(ParamTable::kTransfer),
                         group.relation, nullptr, group.dim * group.dim);
      });
  if (!st.ok()) return Reject(frame, st.message());

  // Pass 2 applies each row straight from the received bytes through the
  // in-process Trainer's optimizer, and each factor group from its h
  // vectors in those bytes, rebuilt into one scratch row. Ids are distinct
  // within a table, so renormalizing a row right after its update equals
  // renormalizing after the whole table's.
  const bool adam = options_.optimizer == core::OptimizerKind::kAdam;
  const core::OptimizerStep step = optimizer_.BeginStep(scale);
  uint64_t rows = 0;
  const auto apply_row = [&](uint32_t slab, uint32_t id, const float* g,
                             uint32_t) -> Status {
    const ParamTable table = static_cast<ParamTable>(slab);
    optimizer_.ApplyRow(step, table, id, g);
    if (table == ParamTable::kTransfer) LogTransferUpdate(id, 0.0f, nullptr);
    ++rows;
    return Status::Ok();
  };
  // Cannot fail: pass 1 accepted this blob. Under SGD a factor group is
  // applied and logged as received, so a worker can replay it exactly.
  (void)core::VisitGradArenaBlob(
      blob, apply_row, [&](const core::BlobFactorGroup& group) {
        if (adam) {
          return apply_row(
              static_cast<uint32_t>(ParamTable::kTransfer), group.relation,
              core::RebuildTransferRow(group, kernels_, &rebuild_scratch_),
              group.dim * group.dim);
        }
        core::ApplyTransferGroup(group, step.sgd_alpha, kernels_,
                                 &rebuild_scratch_,
                                 model_.transfer(group.relation));
        LogTransferUpdate(group.relation, step.sgd_alpha, &group);
        ++rows;
        return Status::Ok();
      });

  ++pushes_;
  rows_applied_.fetch_add(rows);
  return net::EncodePushAck(frame.correlation_id,
                            static_cast<uint32_t>(rows));
}

void ParamServer::HandleBarrier(const Frame& frame, Respond respond) {
  uint32_t epoch = 0;
  uint32_t num_workers = 0;
  Status st = net::DecodeBarrier(frame.payload, &epoch, &num_workers);
  if (!st.ok() || num_workers == 0) {
    ++rejects_;
    respond(net::EncodeError(frame.correlation_id, WireCode::kInvalidItem,
                             st.ok() ? "barrier expects num_workers > 0"
                                     : st.message()));
    return;
  }

  std::vector<std::pair<uint64_t, Respond>> release;
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    if (!accepting_barriers_) {
      respond(net::EncodeError(frame.correlation_id, WireCode::kRejected,
                               "shard is shutting down"));
      return;
    }
    BarrierState& state = barriers_[epoch];
    if (state.expected == 0) {
      state.expected = num_workers;
    } else if (state.expected != num_workers) {
      respond(net::EncodeError(
          frame.correlation_id, WireCode::kRejected,
          StrFormat("barrier %u worker-count mismatch: %u vs %u",
                    static_cast<unsigned>(epoch),
                    static_cast<unsigned>(num_workers),
                    static_cast<unsigned>(state.expected))));
      return;
    }
    state.waiters.emplace_back(frame.correlation_id, std::move(respond));
    if (state.waiters.size() < state.expected) return;
    release = std::move(state.waiters);
    barriers_.erase(epoch);
    ++barriers_released_;
  }
  // Complete outside the lock: responds post to I/O threads and must not
  // nest under barrier_mu_.
  for (auto& [cid, cb] : release) {
    cb(net::EncodeBarrierReply(cid, epoch,
                               static_cast<uint32_t>(release.size())));
  }
}

void ParamServer::AbortBarriers() {
  std::map<uint32_t, BarrierState> parked;
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    accepting_barriers_ = false;
    parked.swap(barriers_);
  }
  for (auto& [epoch, state] : parked) {
    for (auto& [cid, cb] : state.waiters) {
      cb(net::EncodeError(cid, WireCode::kRejected, "barrier aborted"));
    }
  }
}

std::string ParamServer::StatsJson() {
  return StrFormat(
      "{\"shard\": %u, \"num_shards\": %u, \"optimizer\": \"%s\", "
      "\"pulls\": %llu, \"rows_pulled\": %llu, \"pushes\": %llu, "
      "\"rows_applied\": %llu, \"rejects\": %llu, "
      "\"barriers_released\": %llu, \"step\": %llu, "
      "\"transfer_rows_from_log\": %llu, \"transfer_rows_dense\": %llu, "
      "\"transfer_log_bytes\": %llu}",
      static_cast<unsigned>(options_.shard_index),
      static_cast<unsigned>(options_.num_shards),
      options_.optimizer == core::OptimizerKind::kAdam ? "adam" : "sgd",
      static_cast<unsigned long long>(pulls_.load()),
      static_cast<unsigned long long>(rows_pulled_.load()),
      static_cast<unsigned long long>(pushes_.load()),
      static_cast<unsigned long long>(rows_applied_.load()),
      static_cast<unsigned long long>(rejects_.load()),
      static_cast<unsigned long long>(barriers_released_.load()),
      static_cast<unsigned long long>(optimizer_.step()),
      static_cast<unsigned long long>(transfer_rows_from_log_.load()),
      static_cast<unsigned long long>(transfer_rows_dense_.load()),
      static_cast<unsigned long long>(transfer_log_bytes_.load()));
}

}  // namespace pkgm::dist
