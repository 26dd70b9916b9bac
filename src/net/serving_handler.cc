#include "net/serving_handler.h"

#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace pkgm::net {
namespace {

using DecodeRequests = Status (*)(std::string_view,
                                  serve::ServeClock::time_point,
                                  std::vector<serve::ServiceRequest>*);

/// Encodes the response frame matching a request frame's reply type. The
/// lookup path answers kVectors; the inference kinds answer their typed
/// replies (score entries for recommend/align, top-k lists for classify).
std::string EncodeReply(FrameType reply_type, uint64_t correlation_id,
                        const std::vector<serve::ServiceResponse>& slots) {
  switch (reply_type) {
    case FrameType::kRecommendReply:
    case FrameType::kAlignReply:
      return EncodeScoreReply(reply_type, correlation_id, slots);
    case FrameType::kClassifyReply:
      return EncodeClassifyReply(correlation_id, slots);
    default:
      return EncodeVectors(correlation_id, slots);
  }
}

/// One submitted frame: the per-request callbacks fill `slots`, and the
/// one finishing the last request encodes the reply and responds.
struct PendingFrame {
  FrameHandler::Respond respond;
  FrameType reply_type;
  uint64_t correlation_id;
  std::vector<serve::ServiceResponse> slots;
  std::atomic<size_t> remaining;
};

}  // namespace

ServingHandler::ServingHandler(serve::KnowledgeServer* server)
    : server_(server) {
  PKGM_CHECK(server != nullptr);
}

FrameHandler::Result ServingHandler::HandleFrame(const Frame& frame,
                                                 Respond respond) {
  // All four request kinds share one lifecycle: decode, submit the batch,
  // encode the matching typed reply when its last request completes.
  DecodeRequests decode = nullptr;
  FrameType reply_type = FrameType::kError;
  switch (frame.type) {
    case FrameType::kGetVectors:
      decode = DecodeGetVectors;
      reply_type = FrameType::kVectors;
      break;
    case FrameType::kRecommend:
      decode = DecodeRecommend;
      reply_type = FrameType::kRecommendReply;
      break;
    case FrameType::kClassify:
      decode = DecodeClassify;
      reply_type = FrameType::kClassifyReply;
      break;
    case FrameType::kAlign:
      decode = DecodeAlign;
      reply_type = FrameType::kAlignReply;
      break;
    default:
      return Result::kRefused;
  }
  std::vector<serve::ServiceRequest> requests;
  if (!decode(frame.payload, serve::ServeClock::now(), &requests).ok()) {
    return Result::kMalformed;
  }
  requests_in_ += requests.size();
  if (requests.empty()) {
    respond(EncodeReply(reply_type, frame.correlation_id, {}));
    return Result::kTaken;
  }
  auto pending = std::make_shared<PendingFrame>();
  pending->respond = std::move(respond);
  pending->reply_type = reply_type;
  pending->correlation_id = frame.correlation_id;
  pending->slots.resize(requests.size());
  pending->remaining.store(requests.size(), std::memory_order_relaxed);
  server_->SubmitBatchAsync(
      std::move(requests),
      [pending](size_t index, serve::ServiceResponse response) {
        pending->slots[index] = std::move(response);
        if (pending->remaining.fetch_sub(1) == 1) {
          pending->respond(EncodeReply(pending->reply_type,
                                       pending->correlation_id,
                                       pending->slots));
        }
      });
  return Result::kTaken;
}

std::string ServingHandler::StatsJson(const serve::NetCounters& net) const {
  serve::NetCounters counters = net;
  counters.requests_in = requests_in();
  return server_->StatsJson(&counters);
}

std::string ServingHandler::StatsReport(const serve::NetCounters& net) const {
  serve::NetCounters counters = net;
  counters.requests_in = requests_in();
  return server_->StatsReport(&counters);
}

}  // namespace pkgm::net
