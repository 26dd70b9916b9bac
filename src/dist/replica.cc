#include "dist/replica.h"

#include "util/logging.h"

namespace pkgm::dist {

using net::ParamTable;

Replica::Replica(const core::PkgmModelOptions& options)
    : model_(options),
      transfer_slots_(
          std::make_unique<TransferSlot[]>(options.num_relations)) {}

uint32_t Replica::RowSizeOf(ParamTable table) const {
  const uint32_t dim = model_.dim();
  switch (table) {
    case ParamTable::kEntity:
    case ParamTable::kRelation:
      return dim;
    case ParamTable::kTransfer:
      return model_.use_relation_module() ? dim * dim : 0;
    case ParamTable::kHyperplane:
      return model_.scorer() == core::TripleScorerKind::kTransH ? dim : 0;
  }
  return 0;
}

float* Replica::RowOf(ParamTable table, uint32_t id) {
  switch (table) {
    case ParamTable::kEntity:
      return model_.entity(id);
    case ParamTable::kRelation:
      return model_.relation(id);
    case ParamTable::kTransfer:
      return model_.transfer(id);
    case ParamTable::kHyperplane:
      return model_.hyperplane(id);
  }
  return nullptr;
}

Status Replica::Apply(std::string_view payload,
                      const std::vector<net::PullSection>& request,
                      const simd::KernelTable* replay, Scratch* scratch,
                      uint64_t* rows) {
  std::vector<net::RowsView>& views = scratch->views;
  PKGM_RETURN_IF_ERROR(net::DecodeRowsView(payload, &views));
  const uint32_t dim = model_.dim();

  // Pass 1 checks the whole reply, so a bad one leaves the replica as it
  // was.
  if (views.size() != request.size()) {
    return Status::IoError("kRows sections do not echo the pull");
  }
  for (size_t s = 0; s < views.size(); ++s) {
    const net::RowsView& sec = views[s];
    const net::PullSection& asked = request[s];
    if (sec.table != asked.table || sec.count != asked.ids.size() ||
        sec.versioned == asked.versions.empty()) {
      return Status::IoError("kRows sections do not echo the pull");
    }
    const uint32_t want_row = RowSizeOf(sec.table);
    if (want_row == 0 || sec.row_size != want_row) {
      return Status::IoError("pulled row size disagrees with the replica");
    }
    for (uint32_t i = 0; i < sec.count; ++i) {
      if (sec.id(i) != asked.ids[i]) {
        return Status::IoError("kRows ids do not echo the pull");
      }
    }
    if (!sec.versioned) continue;
    PKGM_CHECK(replay != nullptr);
    const char* p = sec.answers;
    for (uint32_t i = 0; i < sec.count; ++i) {
      net::RowAnswer answer;
      p = sec.ReadAnswer(p, &answer);
      if (answer.row != nullptr) continue;
      uint64_t records = 0;
      PKGM_RETURN_IF_ERROR(core::VisitTransferLog(
          answer.log, asked.ids[i], dim,
          [&](float, const core::BlobFactorGroup&) {
            ++records;
            return Status::Ok();
          }));
      if (answer.version < asked.versions[i] ||
          answer.version - asked.versions[i] != records) {
        return Status::IoError(
            "log records do not run from the pulled version to the answer's");
      }
    }
  }

  // Pass 2 writes it.
  uint64_t answered = 0;
  for (size_t s = 0; s < views.size(); ++s) {
    const net::RowsView& sec = views[s];
    answered += sec.count;
    if (!sec.versioned) {
      for (uint32_t i = 0; i < sec.count; ++i) {
        sec.CopyRow(i, RowOf(sec.table, sec.id(i)));
      }
      continue;
    }
    const char* p = sec.answers;
    for (uint32_t i = 0; i < sec.count; ++i) {
      net::RowAnswer answer;
      p = sec.ReadAnswer(p, &answer);
      const uint32_t id = sec.id(i);
      uint64_t version = request[s].versions[i];
      TransferSlot& slot = transfer_slots_[id];
      std::lock_guard<std::mutex> lock(slot.mu);
      const uint64_t held = slot.version.load(std::memory_order_relaxed);
      // Another worker got here first, or (a log answer) the replica does
      // not hold the requested version — it always does: a pull names the
      // version the replica held, and versions only grow.
      if (answer.version <= held || (answer.row == nullptr && version > held)) {
        continue;
      }
      float* row = model_.transfer(id);
      if (answer.row != nullptr) {
        sec.CopyAnswerRow(answer, row);
      } else {
        // Record k takes the row to the requested version + k.
        (void)core::VisitTransferLog(
            answer.log, id, dim,
            [&](float alpha, const core::BlobFactorGroup& group) {
              if (++version > held) {
                core::ApplyTransferGroup(group, alpha, *replay,
                                         &scratch->rebuild, row);
              }
              return Status::Ok();
            });
      }
      slot.version.store(answer.version, std::memory_order_release);
    }
  }
  *rows = answered;
  return Status::Ok();
}

}  // namespace pkgm::dist
