#ifndef PKGM_SERVE_REQUEST_H_
#define PKGM_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/service.h"
#include "tensor/vec.h"

namespace pkgm::serve {

/// Which service form the client wants: the sequence of per-key-relation
/// vectors (Fig. 2, for sequence-input models) or the single condensed
/// vector (Fig. 3 / Eq. 20, for single-input models).
enum class ServiceForm { kSequence, kCondensed };

/// Terminal status of a served request.
enum class ResponseCode {
  kOk = 0,
  /// Admission control: the request queue was full at submit time.
  kRejected,
  /// The request expired in the queue before a worker picked it up.
  kDeadlineExceeded,
  /// Item id outside the provider's item range.
  kInvalidItem,
  /// Client-side only (src/net/): the connection failed before a response
  /// arrived — connect error, write error, or disconnect with the request
  /// in flight. Never produced by the server.
  kNetworkError,
  /// Admission control: the request's tenant exhausted its token bucket.
  /// Distinct from kRejected (global queue saturation) so one tenant's
  /// burst is visibly shed without implicating overall capacity.
  kQuotaExceeded,
};

/// Human-readable name ("Ok", "Rejected", ...).
inline const char* ResponseCodeName(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk: return "Ok";
    case ResponseCode::kRejected: return "Rejected";
    case ResponseCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ResponseCode::kInvalidItem: return "InvalidItem";
    case ResponseCode::kNetworkError: return "NetworkError";
    case ResponseCode::kQuotaExceeded: return "QuotaExceeded";
  }
  return "Unknown";
}

/// Clock used for request deadlines and latency accounting.
using ServeClock = std::chrono::steady_clock;

/// What the request asks the server to compute. kLookup is the original
/// service-vector fetch; the three inference kinds run a full
/// downstream-model forward on the server — the paper's serving story.
enum class TaskKind : uint8_t {
  /// Service vectors for one item (sequence or condensed form).
  kLookup = 0,
  /// NCF forward for (user, item): score = P(interaction) (§III-D).
  kRecommend = 1,
  /// TinyBert + head forward over the item's title (+ injected service
  /// vectors): top-k class probabilities (§III-B).
  kClassify = 2,
  /// Pair-encoder forward over (item, item_b): same-product score (§III-C).
  kAlign = 3,
};

/// Human-readable name ("lookup", "recommend", ...).
inline const char* TaskKindName(TaskKind task) {
  switch (task) {
    case TaskKind::kLookup: return "lookup";
    case TaskKind::kRecommend: return "recommend";
    case TaskKind::kClassify: return "classify";
    case TaskKind::kAlign: return "align";
  }
  return "unknown";
}

inline constexpr uint8_t kMaxTaskKind = static_cast<uint8_t>(TaskKind::kAlign);

/// One knowledge-service query: "item `item`'s service vectors under
/// `mode`, in `form`" — the online call downstream systems make instead of
/// touching triple data (§II-D/E, triple data independency). The inference
/// kinds reuse `item` + `mode` and add their task-specific operands.
struct ServiceRequest {
  TaskKind task = TaskKind::kLookup;
  uint32_t item = 0;
  core::ServiceMode mode = core::ServiceMode::kAll;
  ServiceForm form = ServiceForm::kCondensed;
  /// kRecommend: the user the item is scored for.
  uint32_t user = 0;
  /// kAlign: the second item of the pair.
  uint32_t item_b = 0;
  /// kClassify: number of top classes wanted (clamped to num_classes;
  /// 0 = 1).
  uint32_t top_k = 1;
  /// Originating tenant, carried through the wire protocol (a u16 in each
  /// kServiceRequests entry) and checked against per-tenant admission
  /// quotas when the server has them configured. 0 = default tenant.
  uint16_t tenant = 0;
  /// Absolute expiry. A worker that dequeues the request after this instant
  /// answers kDeadlineExceeded without computing. time_point::max() = none.
  ServeClock::time_point deadline = ServeClock::time_point::max();
};

/// Result delivered through the future obtained at submit time.
struct ServiceResponse {
  ResponseCode code = ResponseCode::kOk;
  /// kLookup only. Sequence form: 2k (kAll) or k vectors of dim d, triple
  /// block first. Condensed form: exactly one vector of CondensedDim(mode).
  /// Empty on any non-Ok code.
  std::vector<Vec> vectors;
  /// kRecommend: sigmoid(NCF logit). kAlign: raw pair-encoder logit
  /// (monotone in P(same product); > 0 means "same"). 0 otherwise.
  float score = 0.0f;
  /// kClassify: the top-k class ids, most probable first, with their
  /// softmax probabilities. Empty for other kinds / non-Ok codes.
  std::vector<uint32_t> class_ids;
  std::vector<float> class_probs;
  /// True iff a condensed vector was served from the cache.
  bool cache_hit = false;
  /// Time the request spent queued / executing, microseconds.
  double queue_micros = 0.0;
  double compute_micros = 0.0;
};

}  // namespace pkgm::serve

#endif  // PKGM_SERVE_REQUEST_H_
