#ifndef PKGM_DIST_PARAM_SERVER_H_
#define PKGM_DIST_PARAM_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/gradients.h"
#include "core/optimizer.h"
#include "core/pkgm_model.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "tensor/simd/kernel_dispatch.h"

namespace pkgm::dist {

/// Configuration of one parameter-server shard. Every shard of a
/// deployment must be constructed with the same `model` options (same
/// seed, so initialization is bit-identical everywhere) and the same
/// optimizer settings (SGD by default); workers cross-check via kShardInfo
/// before training.
struct ParamServerOptions : core::OptimizerOptions {
  ParamServerOptions() { optimizer = core::OptimizerKind::kSgd; }
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  /// Full model shape. The shard allocates the whole table (simple, and
  /// the replica-everywhere init is what makes pull-before-first-touch
  /// unnecessary) but serves and updates only the rows it owns.
  core::PkgmModelOptions model;
};

/// One embedding shard behind the wire protocol — the server half of the
/// distributed parameter-server training subsystem (paper §III-A2: the
/// production system trains on 50 parameter servers + 200 workers).
///
/// Ownership: entity rows are keyed by entity id, relation / transfer /
/// hyperplane rows by relation id; shard s owns key k iff
/// k % num_shards == s. Pulls and pushes addressing unowned or
/// out-of-range rows are refused with kInvalidItem.
///
/// Versioned transfer rows: the shard counts the updates it applies to
/// each owned transfer matrix M_r (its version; 0 is the seeded init) and,
/// under SGD, keeps the most recent ones as log records
/// (core::AppendTransferLogRecord: the step's alpha and the pushed factor
/// items as received), at most the dense row's 4 d^2 bytes per relation. A
/// dense transfer update empties the log; Adam shards keep none. A
/// versioned kPullRows section names the version each worker holds; the
/// shard answers with the log records after it while the log still holds
/// all of them, otherwise with the dense row and its version.
///
/// Concurrency model (the wire-level hogwild regime):
///   * kPullRows reads entity, relation and hyperplane rows and id-only
///     transfer rows without locking — concurrent pushes make pulled rows
///     slightly stale, exactly like the in-process Trainer's unlocked
///     parameter reads. A versioned answer reads the version and
///     the log tail or row together under the apply mutex, so the two
///     always match.
///   * kPushGrads applies under one apply mutex, so updates from
///     concurrent workers serialize per shard and the optimizer state
///     (Adam moments, step count) stays consistent. A push is checked
///     whole first (all-or-nothing; a repeated row id is refused, and a
///     transfer-matrix factor group counts as its relation's transfer
///     row), then applied row by row straight from the received frame
///     bytes, each factor group rebuilt into one scratch row first.
///   * kBarrier replies are parked until every expected worker arrives at
///     the same epoch. Parked responds count as outstanding frames in the
///     NetServer, so AbortBarriers() must run before NetServer::Stop().
///
/// Pushed rows are applied through the in-process Trainer's optimizer
/// (core::RowOptimizer: SGD axpy or the fused adam_row kernel, then the
/// renormalization), one step per push, so Adam's bias correction follows
/// this shard's push count and one worker pushing synchronously reproduces
/// the in-process trajectory bit-for-bit (see dist_test.cc).
class ParamServer : public net::FrameHandler {
 public:
  explicit ParamServer(const ParamServerOptions& options);

  /// FrameHandler: takes kShardInfo / kPullRows / kPushGrads / kBarrier
  /// and refuses every other type.
  Result HandleFrame(const net::Frame& frame, Respond respond) override;
  /// pkgm_psd's snapshot: the transport's "net" object, then this shard's
  /// counters.
  std::string StatsJson(const serve::NetCounters& net) const override;

  /// Fails all parked barrier waiters with kError/kRejected and refuses
  /// subsequent kBarrier frames. Call before NetServer::Stop(), otherwise
  /// the drain waits on the parked responds until its timeout.
  void AbortBarriers();

  /// The shard announcement workers validate against (kShardInfoReply).
  net::ShardInfo Info() const;

  const core::PkgmModel& model() const { return model_; }
  uint32_t shard_index() const { return options_.shard_index; }
  uint32_t num_shards() const { return options_.num_shards; }

  /// Pushes applied (= the Adam bias-correction step count).
  uint64_t step() const { return optimizer_.step(); }

  /// Updates applied to owned transfer row `relation` so far (models with
  /// the relation module). Read it only while no push is being applied.
  uint64_t transfer_version(uint32_t relation) const {
    return transfer_logs_[relation / options_.num_shards].version;
  }

  /// Adam's first and second moment rows for row `id` of `table`, or
  /// nullptrs under SGD. Read them only while no push is being applied.
  std::pair<const float*, const float*> AdamMoments(net::ParamTable table,
                                                    uint32_t id) const;

  /// Bytes of the largest valid kPushGrads payload under this shard's model
  /// shape: one row per owned key of every present table (a push repeating
  /// an id is refused) and the factor section's header. A worker writes a
  /// factor group only while it is smaller than the dense row, so factors
  /// never push past this. The NetServer in front of the shard must accept
  /// frames at least this large.
  size_t MaxPushPayloadBytes() const;

 private:
  bool OwnsKey(uint32_t key) const {
    return key % options_.num_shards == options_.shard_index;
  }
  /// Table row count keyed by the table's id space (entities or relations).
  uint32_t NumKeysOf(net::ParamTable table) const;

  /// One owned transfer row's version and, under SGD, its update log: the
  /// records of versions (version - records, version], oldest first, in
  /// bytes[head, end).
  struct TransferLog {
    uint64_t version = 0;
    std::string bytes;
    size_t head = 0;
    uint64_t records = 0;
  };
  TransferLog& LogOf(uint32_t relation) {
    return transfer_logs_[relation / options_.num_shards];
  }
  /// Counts one update of `relation`'s transfer row: a factor group applied
  /// with `alpha` is logged (oldest records dropped to keep the bound), any
  /// other update empties the log. Under apply_mu_.
  void LogTransferUpdate(uint32_t relation, float alpha,
                         const core::BlobFactorGroup* group);
  /// Writes the answer to a versioned pull of `relation` from `version`.
  /// Under apply_mu_.
  void AppendTransferAnswer(uint32_t relation, uint64_t version,
                            std::string* out);

  /// Each returns the fully encoded response frame (kRows / kPushAck /
  /// kError) for the request.
  std::string HandlePull(const net::Frame& frame);
  std::string HandlePush(const net::Frame& frame);
  /// Counts a refused request and encodes its kError/kInvalidItem reply.
  std::string Reject(const net::Frame& frame, std::string_view why);
  /// Parks or completes the respond; never returns a frame.
  void HandleBarrier(const net::Frame& frame, Respond respond);

  const ParamServerOptions options_;
  core::PkgmModel model_;
  const simd::KernelTable& kernels_;

  /// Serializes pushes: optimizer state and the duplicate-id stamps live
  /// under it.
  std::mutex apply_mu_;
  /// Per table, seen_[t][id / num_shards] == push_serial_ marks an owned id
  /// already present in the push being checked.
  std::vector<uint32_t> seen_[4];
  uint32_t push_serial_ = 0;
  /// The one row factor groups are rebuilt into.
  core::TransferRebuildScratch rebuild_scratch_;
  /// Per owned relation (at relation / num_shards), under apply_mu_.
  std::vector<TransferLog> transfer_logs_;
  /// Applies pushed rows (and holds the Adam moments), under apply_mu_.
  core::RowOptimizer optimizer_;

  struct BarrierState {
    uint32_t expected = 0;
    std::vector<std::pair<uint64_t, Respond>> waiters;  // (correlation, cb)
  };
  std::mutex barrier_mu_;
  bool accepting_barriers_ = true;
  std::map<uint32_t, BarrierState> barriers_;  // keyed by epoch

  std::atomic<uint64_t> pulls_{0};
  std::atomic<uint64_t> rows_pulled_{0};
  std::atomic<uint64_t> pushes_{0};
  std::atomic<uint64_t> rows_applied_{0};
  /// Transfer rows pulled as log records or dense (id-only sections
  /// included), and the log record bytes sent.
  std::atomic<uint64_t> transfer_rows_from_log_{0};
  std::atomic<uint64_t> transfer_rows_dense_{0};
  std::atomic<uint64_t> transfer_log_bytes_{0};
  std::atomic<uint64_t> rejects_{0};
  std::atomic<uint64_t> barriers_released_{0};
};

}  // namespace pkgm::dist

#endif  // PKGM_DIST_PARAM_SERVER_H_
