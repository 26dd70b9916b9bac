#ifndef PKGM_CORE_PAIR_BATCH_H_
#define PKGM_CORE_PAIR_BATCH_H_

// The producer/worker plumbing of the pipelined trainers (ShardedTrainer
// and dist::DistTrainer): an internal header, not part of the core API.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "core/negative_sampler.h"
#include "kg/triple.h"

namespace pkgm::core {

/// One producer-filled unit of work: the positives of one mini-batch plus
/// their pre-drawn negatives. Batches are recycled through a free list, so
/// the vectors keep their capacity across the whole epoch.
struct PairBatch {
  size_t index = 0;
  std::vector<kg::Triple> pos;
  std::vector<NegativeSample> neg;
};

/// Minimal bounded MPMC queue of recycled batch pointers. Close() wakes all
/// poppers once the producer is done; Pop drains remaining batches first.
class BatchQueue {
 public:
  explicit BatchQueue(size_t capacity) : capacity_(capacity) {}

  bool Push(PairBatch* b) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return q_.size() < capacity_ || closed_; });
    if (closed_) return false;
    q_.push_back(b);
    not_empty_.notify_one();
    return true;
  }

  bool Pop(PairBatch** out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    *out = q_.front();
    q_.pop_front();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_, not_full_;
  std::deque<PairBatch*> q_;
  const size_t capacity_;
  bool closed_ = false;
};

}  // namespace pkgm::core

#endif  // PKGM_CORE_PAIR_BATCH_H_
