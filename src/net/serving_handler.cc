#include "net/serving_handler.h"

#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace pkgm::net {
namespace {

/// One submitted frame: the per-request callbacks fill `slots`, and the
/// one finishing the last request encodes the reply and responds.
struct PendingFrame {
  FrameHandler::Respond respond;
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
  if (frame.type != FrameType::kServiceRequests) return Result::kRefused;
  std::vector<serve::ServiceRequest> requests;
  if (!DecodeServiceRequests(frame.payload, serve::ServeClock::now(), &requests)
           .ok()) {
    return Result::kMalformed;
  }
  requests_in_ += requests.size();
  if (requests.empty()) {
    respond(EncodeServiceReplies(frame.correlation_id, {}));
    return Result::kTaken;
  }
  auto pending = std::make_shared<PendingFrame>();
  pending->respond = std::move(respond);
  pending->correlation_id = frame.correlation_id;
  pending->slots.resize(requests.size());
  pending->remaining.store(requests.size(), std::memory_order_relaxed);
  server_->SubmitBatchAsync(
      std::move(requests),
      [pending](size_t index, serve::ServiceResponse response) {
        pending->slots[index] = std::move(response);
        if (pending->remaining.fetch_sub(1) == 1) {
          pending->respond(
              EncodeServiceReplies(pending->correlation_id, pending->slots));
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
