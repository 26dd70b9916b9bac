#ifndef PKGM_NET_SERVING_HANDLER_H_
#define PKGM_NET_SERVING_HANDLER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "net/net_server.h"
#include "serve/knowledge_server.h"
#include "serve/server_stats.h"

namespace pkgm::net {

/// pkgm_netd's FrameHandler: puts a KnowledgeServer behind a NetServer.
/// Each kServiceRequests frame, any mix of task kinds, becomes one
/// SubmitBatchAsync call — the knowledge server's admission control,
/// deadlines, cache and registry hot swap are reused untouched — and the
/// worker completing the frame's last request responds with the
/// kServiceReplies frame. An empty frame, or one whose every request is
/// shed at admission, is answered in place on the loop. Any other frame
/// type is refused.
class ServingHandler : public FrameHandler {
 public:
  /// `server` must outlive the handler and keep running until the
  /// NetServer routing to it has stopped.
  explicit ServingHandler(serve::KnowledgeServer* server);

  Result HandleFrame(const Frame& frame, Respond respond) override;

  /// pkgm_netd's snapshot: KnowledgeServer::StatsJson around `net`, with
  /// `requests_in` filled from this handler.
  std::string StatsJson(const serve::NetCounters& net) const override;
  /// The ASCII counterpart, for pkgm_netd's final table.
  std::string StatsReport(const serve::NetCounters& net) const;

  /// Requests decoded out of served frames.
  uint64_t requests_in() const { return requests_in_.load(); }

 private:
  serve::KnowledgeServer* const server_;
  std::atomic<uint64_t> requests_in_{0};
};

}  // namespace pkgm::net

#endif  // PKGM_NET_SERVING_HANDLER_H_
