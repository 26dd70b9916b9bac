#ifndef PKGM_CORE_LINK_PREDICTION_H_
#define PKGM_CORE_LINK_PREDICTION_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/embedding_source.h"
#include "core/pkgm_model.h"
#include "core/service_math.h"
#include "kg/triple_source.h"

namespace pkgm::core {

/// Link-prediction (KG completion) metrics.
struct LinkPredictionResult {
  double mrr = 0.0;
  double mean_rank = 0.0;
  /// hits[k] = fraction of test triples whose true entity ranked <= k, for
  /// k in {1, 3, 10}.
  std::map<int, double> hits;
  uint64_t count = 0;
};

/// Ranks the true tail of each test triple against candidate entities by
/// the triple-module score ||h + r - t||_1 — exactly the completion
/// mechanism behind the serving function S_T(h,r) = h + r (§II-D1): the
/// nearest entity embedding to S_T is the model's completed tail.
///
/// Scoring pulls parameter rows through the `EmbeddingSource` seam, so
/// the evaluator runs unchanged over a live heap model (`PkgmModel`) and
/// over a memory-mapped `.pkgs` store. Candidates are gathered into
/// contiguous blocks and scored with the batched SIMD kernels
/// (`ScoreTailCandidatesBlock`); test triples are ranked in parallel on a
/// `util::ThreadPool` with a deterministic input-order metric merge, so
/// results are bit-identical for any thread count and match the
/// per-candidate reference path exactly.
///
/// Supports the standard *filtered* protocol: candidates that form another
/// known-true triple are skipped. Ties are scored with the mean of the
/// optimistic and pessimistic rank.
class LinkPredictionEvaluator {
 public:
  struct Options {
    /// Filter candidates that are known positives in `all_known`.
    bool filtered = true;
    /// Worker threads for EvaluateTails: 0 = hardware concurrency, 1 =
    /// rank inline on the calling thread.
    size_t num_threads = 0;
    /// Candidate rows gathered per batched scoring call.
    size_t block_size = 256;
    /// When false, candidates are scored one at a time through
    /// TailDistanceFromRows — the pre-batching reference path, kept so
    /// benches can measure the batching win and tests can assert parity.
    bool use_batched_scoring = true;
  };

  /// `source` provides the parameters to score; `all_known` defines the
  /// filter set (train + valid + test + held-out, typically) through the
  /// TripleSource seam — the in-memory store and the mmap index produce
  /// identical filtered metrics. Both must outlive the evaluator.
  LinkPredictionEvaluator(const EmbeddingSource* source,
                          const kg::TripleSource* all_known, Options options);

  /// Ranks tails over all entities, or over
  /// `candidates_per_relation[r]` when provided (attribute completion is
  /// better measured against the relation's value universe than against
  /// every item in the graph).
  LinkPredictionResult EvaluateTails(
      const std::vector<kg::Triple>& test,
      const std::unordered_map<kg::RelationId, std::vector<kg::EntityId>>*
          candidates_per_relation = nullptr) const;

 private:
  /// Per-worker buffers: dequantization workspace, the query vector, one
  /// gathered candidate block and its scores, and the per-triple filter
  /// mask for the full-entity sweep.
  struct RankScratch {
    RankScratch(uint32_t dim, size_t block_size, uint32_t num_entities)
        : ws(dim),
          query(dim),
          row(dim),
          proj(dim),
          block(block_size * dim),
          scores(block_size),
          filtered(num_entities, 0) {}

    ServiceWorkspace ws;
    std::vector<float> query;
    std::vector<float> row;    // true-tail row (dequantizing sources)
    std::vector<float> proj;   // TransH candidate projection scratch
    std::vector<float> block;  // gathered candidate rows, row-major
    std::vector<float> scores;
    /// filtered[e] == 1 while ranking a triple whose (h, r) has e as a
    /// known tail; marked from TripleSource::Tails once per triple instead
    /// of a membership probe per candidate, and unmarked before returning.
    std::vector<uint8_t> filtered;
  };

  /// Rank of the true tail for one triple among `candidates` (all
  /// entities when null).
  double RankTail(const kg::Triple& t,
                  const std::vector<kg::EntityId>* candidates,
                  RankScratch* scratch) const;

  const EmbeddingSource* source_;
  const kg::TripleSource* all_known_;
  Options options_;
};

}  // namespace pkgm::core

#endif  // PKGM_CORE_LINK_PREDICTION_H_
