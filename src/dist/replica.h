#ifndef PKGM_DIST_REPLICA_H_
#define PKGM_DIST_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "core/gradients.h"
#include "core/pkgm_model.h"
#include "net/wire.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/status.h"

namespace pkgm::dist {

/// A worker process's copy of the model, refreshed from the shards' kRows
/// replies and shared by its hogwild workers. Entity, relation and
/// hyperplane rows are overwritten without a lock: two workers write the
/// same shard values, and a reader may see a torn row, as in the in-process
/// hogwild trainer. Each transfer row carries a version, the number of
/// updates its shard had applied to the row the replica holds; 0 is the
/// seeded init both sides build. Log records are replayed through the
/// shard's own SGD apply (core::ApplyTransferGroup on the shard's kernel
/// table), so a transfer row always byte-equals its shard's row at the
/// replica's version.
class Replica {
 public:
  explicit Replica(const core::PkgmModelOptions& options);

  core::PkgmModel& model() { return model_; }
  const core::PkgmModel& model() const { return model_; }

  /// The version of transfer row `relation` the replica holds.
  uint64_t transfer_version(uint32_t relation) const {
    return transfer_slots_[relation].version.load(std::memory_order_acquire);
  }

  /// Reusable per-thread scratch for Apply.
  struct Scratch {
    std::vector<net::RowsView> views;
    core::TransferRebuildScratch rebuild;
  };

  /// Applies the kRows `payload` answering `request`, checked whole before
  /// the replica is touched: the sections echo the request's tables, ids
  /// and versioning, row sizes match the replica, and every log answer's
  /// records pass core::VisitTransferLog and number exactly its version
  /// minus the requested one. Then rows are copied, and each transfer
  /// answer is applied under its row's lock: log records at or below the
  /// replica's version are skipped and the rest replayed on `replay` (the
  /// answering shard's table, needed when `request` has a versioned
  /// section), and a dense answer overwrites the row and its version only
  /// when newer than the replica's. `*rows` receives the number of rows
  /// answered, a log answer counting as one.
  Status Apply(std::string_view payload,
               const std::vector<net::PullSection>& request,
               const simd::KernelTable* replay, Scratch* scratch,
               uint64_t* rows);

 private:
  struct TransferSlot {
    std::mutex mu;
    /// Written under mu, read without it to name the version in a pull.
    std::atomic<uint64_t> version{0};
  };

  /// Row length of `table` in this model, or 0 when it has no such table.
  uint32_t RowSizeOf(net::ParamTable table) const;
  float* RowOf(net::ParamTable table, uint32_t id);

  core::PkgmModel model_;
  std::unique_ptr<TransferSlot[]> transfer_slots_;
};

}  // namespace pkgm::dist

#endif  // PKGM_DIST_REPLICA_H_
