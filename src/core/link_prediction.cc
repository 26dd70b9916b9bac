#include "core/link_prediction.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "tensor/ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace pkgm::core {

/// The k of every Hits@k the evaluator reports.
constexpr int kHitsAt[] = {1, 3, 10};

LinkPredictionEvaluator::LinkPredictionEvaluator(
    const EmbeddingSource* source, const kg::TripleSource* all_known,
    Options options)
    : source_(source), all_known_(all_known), options_(std::move(options)) {
  PKGM_CHECK(source != nullptr);
  PKGM_CHECK(!options_.filtered || all_known != nullptr);
  PKGM_CHECK_GT(options_.block_size, 0u);
}

double LinkPredictionEvaluator::RankTail(
    const kg::Triple& t, const std::vector<kg::EntityId>* candidates,
    RankScratch* s) const {
  const uint32_t dim = source_->dim();
  const TripleScorerKind scorer = source_->scorer();

  // Precompute the tail-query vector; a candidate's score is its distance
  // from it (L1 for TransE/TransH, negative dot for DistMult / ComplEx).
  TripleServiceVector(*source_, t.head, t.relation, &s->ws, s->query.data());
  const float* q = s->query.data();
  const float* w = source_->has_hyperplanes()
                       ? source_->HyperplaneRow(t.relation, s->proj.data())
                       : nullptr;
  // For dequantizing sources HyperplaneRow lands in s->proj, which TransH
  // scoring also needs as projection scratch — keep the normal in ws.
  if (w == s->proj.data()) {
    std::copy(w, w + dim, s->ws.hyperplane.data());
    w = s->ws.hyperplane.data();
  }

  const float* tail_row = source_->EntityRow(t.tail, s->row.data());
  const float true_score =
      TailDistanceFromRows(scorer, dim, w, q, tail_row, s->proj.data());

  uint64_t less = 0, equal = 0;
  const auto tally = [&](float score) {
    if (score < true_score) {
      ++less;
    } else if (score == true_score) {
      ++equal;
    }
  };

  if (options_.use_batched_scoring && candidates == nullptr) {
    // Full-entity sweep: score contiguous row blocks straight out of the
    // source — zero-copy for row-major fp32 backends (heap model, fp32
    // mmap store); int8 stores dequantize into the scratch block. The
    // filter set is marked once per triple instead of a hash probe per
    // candidate.
    const uint32_t n = source_->num_entities();
    kg::IdSpan known_tails;
    if (options_.filtered) {
      known_tails = all_known_->Tails(t.head, t.relation);
      for (kg::EntityId e : known_tails) {
        if (e < n) s->filtered[e] = 1;
      }
    }
    for (uint32_t start = 0; start < n;
         start += static_cast<uint32_t>(options_.block_size)) {
      const uint32_t count = static_cast<uint32_t>(
          std::min<size_t>(options_.block_size, n - start));
      const float* rows =
          source_->EntityRowsBlock(start, count, s->block.data());
      if (scorer == TripleScorerKind::kTransH && rows != s->block.data()) {
        // TransH projects rows in place; never write through the source's
        // own storage.
        std::memcpy(s->block.data(), rows, count * dim * sizeof(float));
        rows = s->block.data();
      }
      // Safe cast: only the TransH branch writes through `rows`, and it
      // points into the scratch block by the copy above.
      ScoreTailCandidatesBlock(scorer, dim, q, w, const_cast<float*>(rows),
                               count, s->scores.data());
      for (uint32_t i = 0; i < count; ++i) {
        const kg::EntityId e = start + i;
        if (e == t.tail || (options_.filtered && s->filtered[e])) {
          continue;
        }
        tally(s->scores[i]);
      }
    }
    for (kg::EntityId e : known_tails) {
      if (e < n) s->filtered[e] = 0;
    }
  } else {
    size_t fill = 0;
    const auto flush = [&] {
      ScoreTailCandidatesBlock(scorer, dim, q, w, s->block.data(), fill,
                               s->scores.data());
      for (size_t i = 0; i < fill; ++i) tally(s->scores[i]);
      fill = 0;
    };

    const auto consider = [&](kg::EntityId e) {
      if (e == t.tail) return;
      if (options_.filtered && all_known_->Contains(t.head, t.relation, e)) {
        return;
      }
      if (options_.use_batched_scoring) {
        // Gather the candidate row into the block: dequantizing sources
        // write it straight into place, zero-copy sources memcpy one row.
        float* dst = s->block.data() + fill * dim;
        const float* row = source_->EntityRow(e, dst);
        if (row != dst) std::memcpy(dst, row, dim * sizeof(float));
        if (++fill == options_.block_size) flush();
      } else {
        const float* row = source_->EntityRow(e, s->row.data());
        tally(TailDistanceFromRows(scorer, dim, w, q, row, s->proj.data()));
      }
    };

    if (candidates != nullptr) {
      for (kg::EntityId e : *candidates) consider(e);
    } else {
      for (kg::EntityId e = 0; e < source_->num_entities(); ++e) consider(e);
    }
    if (fill > 0) flush();
  }

  // Mean of optimistic (1 + less) and pessimistic (1 + less + equal) ranks.
  return 1.0 + static_cast<double>(less) + static_cast<double>(equal) / 2.0;
}

LinkPredictionResult LinkPredictionEvaluator::EvaluateTails(
    const std::vector<kg::Triple>& test,
    const std::unordered_map<kg::RelationId, std::vector<kg::EntityId>>*
        candidates_per_relation) const {
  LinkPredictionResult result;
  result.count = test.size();
  for (int k : kHitsAt) result.hits[k] = 0.0;
  if (test.empty()) return result;

  const auto candidates_of =
      [&](const kg::Triple& t) -> const std::vector<kg::EntityId>* {
    if (candidates_per_relation == nullptr) return nullptr;
    auto it = candidates_per_relation->find(t.relation);
    return it != candidates_per_relation->end() ? &it->second : nullptr;
  };

  // Rank every test triple into its slot, then merge sequentially in input
  // order — metrics are bit-identical for any thread count.
  std::vector<double> ranks(test.size());
  const auto rank_range = [&](size_t begin, size_t end) {
    RankScratch scratch(source_->dim(), options_.block_size,
                        source_->num_entities());
    for (size_t i = begin; i < end; ++i) {
      ranks[i] = RankTail(test[i], candidates_of(test[i]), &scratch);
    }
  };

  size_t threads = options_.num_threads != 0
                       ? options_.num_threads
                       : std::thread::hardware_concurrency();
  threads = std::max<size_t>(1, std::min(threads, test.size()));
  if (threads == 1) {
    rank_range(0, test.size());
  } else {
    ThreadPool pool(threads);
    const size_t chunk = (test.size() + threads - 1) / threads;
    for (size_t begin = 0; begin < test.size(); begin += chunk) {
      const size_t end = std::min(begin + chunk, test.size());
      pool.Submit([&rank_range, begin, end] { rank_range(begin, end); });
    }
    pool.Wait();
  }

  double rr_sum = 0.0, rank_sum = 0.0;
  for (double rank : ranks) {
    rr_sum += 1.0 / rank;
    rank_sum += rank;
    for (int k : kHitsAt) {
      if (rank <= static_cast<double>(k)) result.hits[k] += 1.0;
    }
  }
  const double n = static_cast<double>(test.size());
  result.mrr = rr_sum / n;
  result.mean_rank = rank_sum / n;
  for (int k : kHitsAt) result.hits[k] /= n;
  return result;
}

}  // namespace pkgm::core
