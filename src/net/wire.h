#ifndef PKGM_NET_WIRE_H_
#define PKGM_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.h"
#include "util/status.h"

namespace pkgm::net {

/// PKGM wire protocol v4 — the versioned binary framing the network serving
/// and distributed-training subsystems speak. Every frame is a fixed
/// 24-byte little-endian header followed by `payload_len` payload bytes:
///
///   offset  size  field
///   0       4     magic            0x4d474b50 ("PKGM" on the wire)
///   4       1     version          kWireVersion
///   5       1     type             FrameType
///   6       2     flags            reserved, must be 0
///   8       8     correlation_id   echoed verbatim in the response frame
///   16      4     payload_len      bytes following the header
///   20      4     payload_crc32c   CRC32C over the payload bytes
///
/// Integrity policy: a header that fails validation (bad magic, unknown
/// version, non-zero flags, payload_len over the negotiated cap) or a
/// payload that fails its CRC means the byte stream can no longer be
/// trusted — the receiver closes the connection. An *unknown frame type*
/// with a valid header and CRC leaves the stream in sync; the server
/// answers it with a kError frame and keeps the connection (forward
/// compatibility).
constexpr uint32_t kWireMagic = 0x4d474b50;
/// v2 added the parameter-server frames (kPullRows .. kBarrierReply); v3
/// added the downstream-inference frames (kRecommend .. kAlignReply); v4
/// added versioned transfer sections to kPullRows / kRows and the shard's
/// kernel ISA to kShardInfoReply. Both ends of a deployment ship from one
/// tree, so the decoder requires an exact version match; an older peer is
/// cut off at the header — it can never misparse a frame it does not know.
constexpr uint8_t kWireVersion = 4;
constexpr size_t kFrameHeaderBytes = 24;
/// Default cap on payload_len; NetServer/NetClient make it configurable.
constexpr size_t kDefaultMaxFrameBytes = 4u << 20;
/// Payloads at least this long that are still incomplete when their header
/// is parsed are received straight into a buffer of their own (see
/// FrameDecoder).
constexpr size_t kLargePayloadBytes = 64u << 10;

enum class FrameType : uint8_t {
  /// Client → server: batched service-vector request.
  kGetVectors = 1,
  /// Server → client: one response entry per request, submission order.
  kVectors = 2,
  /// Client → server: stats probe (empty payload).
  kStats = 3,
  /// Server → client: ServerStats::StatsJson() bytes as the payload.
  kStatsJson = 4,
  /// Client → server: health probe (empty payload).
  kPing = 5,
  /// Server → client: health probe answer (empty payload).
  kPong = 6,
  /// Server → client: connection-level error (WireCode + message). Sent
  /// for recoverable protocol conditions (e.g. unknown frame type).
  kError = 7,

  // --- v2: distributed parameter-server training (src/dist/) ---

  /// Worker → param server: fetch embedding rows by id, grouped into
  /// per-table sections; a transfer section may name the version of each
  /// row the worker holds.
  kPullRows = 8,
  /// Param server → worker: the requested rows (ids echoed back); for a
  /// versioned section, each row's logged updates since the named version
  /// or, when the log no longer covers it, the row and its version.
  kRows = 9,
  /// Worker → param server: a serialized GradArena (blob v2) of touched-row
  /// gradient deltas for rows this shard owns, transfer-matrix gradients as
  /// sufficient factors or dense rows, whichever is smaller, plus the batch
  /// scale factor.
  kPushGrads = 10,
  /// Param server → worker: push applied. Workers bound the number of
  /// unacknowledged pushes per shard (the staleness bound).
  kPushAck = 11,
  /// Worker → param server: shard/model configuration probe (empty).
  kShardInfo = 12,
  /// Param server → worker: shard index/count + model shape + optimizer.
  kShardInfoReply = 13,
  /// Worker → param server: epoch barrier. The server holds the reply
  /// until every expected worker has arrived at the same epoch.
  kBarrier = 14,
  /// Param server → worker: barrier released.
  kBarrierReply = 15,

  // --- v3: downstream-task inference (src/infer/) ---

  /// Client → server: batched NCF recommendation scoring (user, item).
  kRecommend = 16,
  /// Server → client: one {code, score} entry per request, in order.
  kRecommendReply = 17,
  /// Client → server: batched item classification (item, top_k).
  kClassify = 18,
  /// Server → client: one {code, top-k (class, prob) list} per request.
  kClassifyReply = 19,
  /// Client → server: batched item alignment (item, item_b).
  kAlign = 20,
  /// Server → client: one {code, score} entry per request, in order.
  kAlignReply = 21,
};

/// Per-request terminal status on the wire; extends serve::ResponseCode
/// with protocol-level conditions.
enum class WireCode : uint8_t {
  kOk = 0,
  kRejected = 1,
  kDeadlineExceeded = 2,
  kInvalidItem = 3,
  /// Never sent by the server; the client library reports local connection
  /// failures with this code.
  kNetworkError = 4,
  /// The server did not understand the frame (unknown type).
  kUnsupported = 5,
  /// The request's tenant exhausted its admission quota (token bucket).
  kQuotaExceeded = 6,
};

/// Highest WireCode value; decoders reject anything above it.
inline constexpr uint8_t kMaxWireCode =
    static_cast<uint8_t>(WireCode::kQuotaExceeded);

WireCode WireCodeFromResponse(serve::ResponseCode code);
serve::ResponseCode ResponseCodeFromWire(WireCode code);

/// CRC32C (Castagnoli) over `len` bytes; `crc` seeds chained computation
/// (pass 0 to start). Dispatches once per process to the hardware CRC32C
/// instructions where available (SSE4.2 on x86-64, the ARMv8 CRC
/// extension) and to the table-driven software implementation otherwise;
/// setting PKGM_CRC32C=sw in the environment pins the software path. Both
/// paths produce identical values — the checksum is on the per-batch
/// gradient push path, and the software implementation is kept as the
/// parity oracle the hardware path is tested against.
uint32_t Crc32c(const void* data, size_t len, uint32_t crc = 0);

/// The table-driven reference implementation (always available).
uint32_t Crc32cSoftware(const void* data, size_t len, uint32_t crc = 0);

/// Name of the CRC32C implementation Crc32c() dispatches to: "sse4.2",
/// "armv8-crc" or "software".
const char* Crc32cImplName();

/// A decoded frame: type + correlation id + raw payload bytes. Payload
/// interpretation is per-type via the Decode* functions below.
struct Frame {
  FrameType type = FrameType::kError;
  uint64_t correlation_id = 0;
  std::string payload;
};

// ------------------------------------------------------------- encoding --

/// Appends a complete frame (header + payload) to `out`.
void AppendFrame(FrameType type, uint64_t correlation_id,
                 std::string_view payload, std::string* out);

/// In-place framing: BeginFrame appends a header whose payload_len and CRC
/// are still zero and returns its offset in `out`; the caller appends the
/// payload bytes right after it, and FinishFrame(start, out) patches
/// payload_len and the CRC32C over everything appended since the header.
size_t BeginFrame(FrameType type, uint64_t correlation_id, std::string* out);
void FinishFrame(size_t start, std::string* out);

/// kGetVectors payload: u32 count, then per request
/// {u32 item, u8 mode, u8 form, u16 tenant, u32 deadline_micros}.
/// The tenant field (ex-reserved; older clients always sent 0, which is
/// the default tenant — wire-compatible) feeds per-tenant admission
/// quotas on the server.
/// Deadlines travel as *relative* microseconds-from-now (clocks are not
/// comparable across machines); 0 means no deadline, and an
/// already-expired absolute deadline is clamped to 1 so expiry survives
/// the trip.
std::string EncodeGetVectors(uint64_t correlation_id,
                             const std::vector<serve::ServiceRequest>& requests,
                             serve::ServeClock::time_point now);

/// kVectors payload: u32 count, then per entry {u8 code, u8 flags
/// (bit0 = cache_hit), u16 reserved, u32 num_vectors, num_vectors *
/// {u32 len, len * f32}}.
std::string EncodeVectors(uint64_t correlation_id,
                          const std::vector<serve::ServiceResponse>& responses);

/// kError payload: u8 code, then the message bytes to the payload end.
std::string EncodeError(uint64_t correlation_id, WireCode code,
                        std::string_view message);

/// kStatsJson payload: the JSON bytes verbatim.
std::string EncodeStatsJson(uint64_t correlation_id, std::string_view json);

/// Empty-payload frame (kStats, kPing, kPong).
std::string EncodeControl(FrameType type, uint64_t correlation_id);

// ------------------------------------------------------------- decoding --

/// Incremental frame extraction over a byte stream: fragmented reads go
/// in, complete validated frames come out. Single-owner (one per
/// connection), not thread-safe.
///
/// Receive path: a socket reader asks PrepareRead() where to read() to and
/// reports the byte count with CommitRead(), so received bytes are written
/// once. Small frames sit in a stream buffer — 4 KiB, doubled after a read
/// that fills it up to 64 KiB, and always large enough for the pending
/// frame — and are copied out by Next(). A payload of at least
/// kLargePayloadBytes that is incomplete when its header is parsed gets a
/// std::string of its own, which later reads fill directly and Next()
/// moves whole into Frame::payload.
///
/// Memory bound: that string starts at min(payload_len, max(2 x the
/// payload bytes already received, kLargePayloadBytes, the largest such
/// payload this stream has completed)) and doubles as it fills, capped at
/// payload_len. However large a length a header declares, the payload
/// buffer therefore never exceeds twice what the peer has sent on the
/// stream or kLargePayloadBytes, whichever is larger.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Copies `len` more stream bytes in (in-memory replays and tests; socket
  /// readers use PrepareRead/CommitRead and skip this copy).
  void Feed(const void* data, size_t len);

  /// The non-empty region the next read() should fill, valid until the next
  /// call on this decoder. Call Next() until kNeedMore before asking again.
  std::span<char> PrepareRead();
  /// Records that the first `n` bytes of the last PrepareRead() region
  /// were filled.
  void CommitRead(size_t n);

  enum class Result {
    /// A complete frame was validated and moved into *frame.
    kFrame,
    /// The buffer does not hold a complete frame yet.
    kNeedMore,
    /// Protocol violation (bad magic/version/flags/length/CRC). The stream
    /// is unrecoverable; *error names the violation. The caller must close
    /// the connection — further Next() calls keep returning kError.
    kError,
  };

  Result Next(Frame* frame, std::string* error);

  /// Bytes received but not yet returned in a frame by Next().
  size_t buffered_bytes() const {
    return end_ - begin_ + (in_large_ ? large_filled_ : 0);
  }
  /// Bytes of storage the decoder holds: the stream buffer plus any large
  /// payload under assembly.
  size_t held_bytes() const { return buf_cap_ + large_.capacity(); }

 private:
  struct Header {
    uint8_t type = 0;
    uint64_t correlation_id = 0;
    uint32_t payload_len = 0;
    uint32_t crc = 0;
  };

  /// True while a large payload is still missing bytes.
  bool LargePending() const {
    return in_large_ && large_filled_ < large_header_.payload_len;
  }
  /// Moves the unconsumed stream bytes to the front of a buffer of at least
  /// `capacity` bytes (reallocating only to grow).
  void Compact(size_t capacity);
  /// Length of the small frame whose header starts the unconsumed stream
  /// bytes, or 0 (no complete header yet, or a large payload).
  size_t PendingSmallFrameBytes() const;
  Result Fail(std::string message, std::string* error);

  const size_t max_frame_bytes_;
  /// Stream buffer; bytes [begin_, end_) are received and unconsumed.
  std::unique_ptr<char[]> buf_;
  size_t buf_cap_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  /// The last read filled the stream buffer: grow it for the next one.
  bool last_read_filled_ = false;
  /// The large payload under assembly (see the class comment).
  bool in_large_ = false;
  Header large_header_;
  std::string large_;
  size_t large_filled_ = 0;
  size_t largest_large_payload_ = 0;
  bool poisoned_ = false;
};

/// Inverse of EncodeGetVectors: reconstructs absolute deadlines against
/// `now`. Fails on truncated/garbled payloads or out-of-range enum values;
/// `count` is validated against the payload size before any allocation.
Status DecodeGetVectors(std::string_view payload,
                        serve::ServeClock::time_point now,
                        std::vector<serve::ServiceRequest>* out);

/// Inverse of EncodeVectors. Every length is validated against the
/// remaining payload before allocation, so a hostile frame cannot force an
/// allocation larger than the frame itself.
Status DecodeVectors(std::string_view payload,
                     std::vector<serve::ServiceResponse>* out);

Status DecodeError(std::string_view payload, WireCode* code,
                   std::string* message);

// ------------------------------------- distributed-training frames (v2) --

/// Which parameter table a pull/push section addresses. Values are wire
/// bytes; keep them dense and stable.
enum class ParamTable : uint8_t {
  kEntity = 0,
  kRelation = 1,
  kTransfer = 2,
  kHyperplane = 3,
};
constexpr uint8_t kMaxParamTable = 3;

/// One per-table group of row ids in a kPullRows request.
struct PullSection {
  ParamTable table = ParamTable::kEntity;
  std::vector<uint32_t> ids;
  /// Empty for an id-only section, answered with the rows. Otherwise the
  /// section is versioned (transfer rows only): versions[i] is the version
  /// of row ids[i] the puller holds, and the answer brings it up to date.
  std::vector<uint64_t> versions = {};
};

/// One per-table group of rows in a kRows response; `values` holds
/// ids.size() rows of `row_size` floats, in id order. A versioned section
/// keeps its answers as their wire bytes in `answers` instead.
struct RowsSection {
  ParamTable table = ParamTable::kEntity;
  uint32_t row_size = 0;
  std::vector<uint32_t> ids;
  std::vector<float> values;
  bool versioned = false;
  std::string answers = {};
};

/// Shard/model configuration announced by a parameter server, so workers
/// can validate that every shard agrees with the local replica before
/// training starts.
struct ShardInfo {
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  uint32_t num_entities = 0;
  uint32_t num_relations = 0;
  uint32_t dim = 0;
  uint8_t scorer = 0;              ///< core::TripleScorerKind byte
  bool use_relation_module = true;
  uint8_t optimizer = 0;           ///< core::OptimizerKind byte
  float learning_rate = 0.0f;
  uint64_t model_seed = 0;
  /// simd::KernelIsa byte of the shard's kernel table: the table a worker
  /// replays the shard's transfer-row log records on.
  uint8_t kernel_isa = 0;
};

/// Table-byte flag of a versioned section in kPullRows and kRows.
constexpr uint8_t kVersionedSection = 0x80;

/// kPullRows payload: u32 num_sections, then per section {u8 table
/// (| kVersionedSection), u32 count, count * u32 id, and for a versioned
/// section count * u64 version}. Only transfer sections may be versioned.
std::string EncodePullRows(uint64_t correlation_id,
                           const std::vector<PullSection>& sections);
Status DecodePullRows(std::string_view payload,
                      std::vector<PullSection>* out);

/// Bytes of a kRows section header: u8 table, u32 row_size, u32 count.
constexpr size_t kRowsSectionHeaderBytes = 9;
/// Bytes ahead of each answer of a versioned kRows section: u64 version,
/// u32 log_bytes.
constexpr size_t kAnswerHeaderBytes = 12;
/// The log_bytes of an answer that carries the dense row.
constexpr uint32_t kDenseAnswer = 0xffffffffu;

/// kRows payload: u32 num_sections, then per section {u8 table
/// (| kVersionedSection when the request's section was versioned),
/// u32 row_size, u32 count, count * u32 id, then the answers}. An id-only
/// section answers with count * row_size * f32: the rows, in id order. A
/// versioned section answers each id in turn with {u64 version,
/// u32 log_bytes} followed by
///   * for log_bytes == kDenseAnswer, the row's row_size * f32 at `version`;
///   * otherwise log_bytes (at most 4 * row_size) bytes of transfer log
///     records (core::VisitTransferLog), one per version from the requested
///     version + 1 to `version`, which replayed in order bring the row from
///     the requested version to `version`.
/// So an answer is never longer than the dense one. Ids and values travel
/// as contiguous runs so both sides memcpy.
std::string EncodeRows(uint64_t correlation_id,
                       const std::vector<RowsSection>& sections);

/// Supplies the `row_size` floats of row `id` of `table` while a kRows
/// frame is written.
using RowSource = std::function<const float*(ParamTable table, uint32_t id)>;

/// Writes the answer to versioned row `id` of `table`, whose puller holds
/// `version`, to `out` with AppendDenseAnswer or AppendLogAnswer.
using AnswerSource = std::function<void(ParamTable table, uint32_t id,
                                        uint64_t version, std::string* out)>;

/// Appends a versioned answer carrying `row` (row_size floats) at `version`.
void AppendDenseAnswer(uint64_t version, const float* row, uint32_t row_size,
                       std::string* out);
/// Appends a versioned answer carrying the log `records` up to `version`.
void AppendLogAnswer(uint64_t version, std::string_view records,
                     std::string* out);

/// Appends the kRows frame answering `sections` to `out`, reserved to its
/// largest size, with every row of an id-only section gathered from `row`
/// straight into the frame and every versioned answer written by `answer`.
/// `row_sizes[s]` is the row length of section s.
void AppendRowsFrame(uint64_t correlation_id,
                     const std::vector<PullSection>& sections,
                     const std::vector<uint32_t>& row_sizes,
                     const RowSource& row, const AnswerSource& answer,
                     std::string* out);

/// One answer of a versioned kRows section, as a view into the payload.
struct RowAnswer {
  uint64_t version = 0;
  /// A dense answer's row_size little-endian f32 values, else nullptr.
  const char* row = nullptr;
  /// A log answer's records (empty for a dense answer or an up-to-date row).
  std::string_view log;
};

/// One kRows section as a view into the payload it was decoded from, which
/// must outlive it: `ids` holds `count` little-endian u32 ids; an id-only
/// section's `values` holds the `count * row_size` little-endian f32 row
/// values in id order, and a versioned section's `answers` its
/// `answer_bytes` bytes of answers.
struct RowsView {
  ParamTable table = ParamTable::kEntity;
  bool versioned = false;
  uint32_t row_size = 0;
  uint32_t count = 0;
  const char* ids = nullptr;
  const char* values = nullptr;
  const char* answers = nullptr;
  size_t answer_bytes = 0;

  uint32_t id(size_t i) const;
  /// Copies row i's `row_size` floats to `dst`.
  void CopyRow(size_t i, float* dst) const;
  /// Reads the answer at `p` (answers, then each return value in turn) and
  /// returns the position of the next one.
  const char* ReadAnswer(const char* p, RowAnswer* out) const;
  /// Copies a dense answer's `row_size` floats to `dst`.
  void CopyAnswerRow(const RowAnswer& answer, float* dst) const;
};

/// The kRows parser: validates the payload (section count and each
/// section's row budget checked against the bytes present before any
/// allocation; a versioned section only for the transfer table, each answer
/// whole and its log no longer than the dense row; trailing bytes
/// rejected) and returns its sections as views, copying no row. Log records
/// are left to core::VisitTransferLog.
Status DecodeRowsView(std::string_view payload, std::vector<RowsView>* out);
/// DecodeRowsView, with every section copied out.
Status DecodeRows(std::string_view payload, std::vector<RowsSection>* out);

/// Bytes of the kPushGrads scale/epoch prefix ahead of the blob.
constexpr size_t kPushGradsPrefixBytes = 8;

/// kPushGrads payload: f32 scale, u32 epoch, then a serialized GradArena
/// blob (see core::SerializeGradArena: four dense slabs and a section of
/// transfer-matrix factor groups) to the payload end. The blob keeps its
/// own versioned, corruption-rejecting header; this codec treats it as
/// bytes.
std::string EncodePushGrads(uint64_t correlation_id, float scale,
                            uint32_t epoch, std::string_view arena_blob);
/// In-place kPushGrads: appends the header and the scale/epoch prefix to
/// `out` and returns the frame's start; append the blob (for instance with
/// core::SerializeGradArena) and close the frame with FinishFrame.
size_t BeginPushGrads(uint64_t correlation_id, float scale, uint32_t epoch,
                      std::string* out);
Status DecodePushGrads(std::string_view payload, float* scale,
                       uint32_t* epoch, std::string_view* arena_blob);

/// kPushAck payload: u32 rows_applied.
std::string EncodePushAck(uint64_t correlation_id, uint32_t rows_applied);
Status DecodePushAck(std::string_view payload, uint32_t* rows_applied);

/// kShardInfoReply payload: u32 x5 (shard_index, num_shards, num_entities,
/// num_relations, dim), u8 scorer, u8 relation_module, u8 optimizer,
/// u8 kernel_isa, f32 lr, u64 seed. kShardInfo itself is an empty-payload
/// probe (EncodeControl).
std::string EncodeShardInfoReply(uint64_t correlation_id,
                                 const ShardInfo& info);
Status DecodeShardInfoReply(std::string_view payload, ShardInfo* out);

/// kBarrier payload: u32 epoch, u32 num_workers (the arrival count the
/// server waits for; every worker of one epoch must announce the same).
std::string EncodeBarrier(uint64_t correlation_id, uint32_t epoch,
                          uint32_t num_workers);
Status DecodeBarrier(std::string_view payload, uint32_t* epoch,
                     uint32_t* num_workers);

/// kBarrierReply payload: u32 epoch, u32 workers_arrived.
std::string EncodeBarrierReply(uint64_t correlation_id, uint32_t epoch,
                               uint32_t workers_arrived);
Status DecodeBarrierReply(std::string_view payload, uint32_t* epoch,
                          uint32_t* workers_arrived);

// ------------------------------------------ inference frames (v3) --------

/// kRecommend payload: u32 count, then per request {u32 user, u32 item,
/// u8 mode, u8 reserved (must be 0), u16 tenant, u32 deadline_micros}.
/// Deadlines use the same relative-microsecond convention as
/// EncodeGetVectors. Every request's `task` must be TaskKind::kRecommend.
std::string EncodeRecommend(uint64_t correlation_id,
                            const std::vector<serve::ServiceRequest>& requests,
                            serve::ServeClock::time_point now);
Status DecodeRecommend(std::string_view payload,
                       serve::ServeClock::time_point now,
                       std::vector<serve::ServiceRequest>* out);

/// kRecommendReply / kAlignReply payload: u32 count, then per entry
/// {u8 code, u8 flags (bit0 = cache_hit), u16 reserved (must be 0),
/// f32 score}. The count is validated against the exact payload size
/// before any allocation; trailing bytes are rejected.
std::string EncodeScoreReply(FrameType type, uint64_t correlation_id,
                             const std::vector<serve::ServiceResponse>& responses);
Status DecodeScoreReply(std::string_view payload,
                        std::vector<serve::ServiceResponse>* out);

/// kClassify payload: u32 count, then per request {u32 item, u32 top_k,
/// u8 mode, u8 reserved (must be 0), u16 tenant, u32 deadline_micros}.
std::string EncodeClassify(uint64_t correlation_id,
                           const std::vector<serve::ServiceRequest>& requests,
                           serve::ServeClock::time_point now);
Status DecodeClassify(std::string_view payload,
                      serve::ServeClock::time_point now,
                      std::vector<serve::ServiceRequest>* out);

/// kClassifyReply payload: u32 count, then per entry {u8 code, u8 flags
/// (bit0 = cache_hit), u16 k, k * {u32 class_id, f32 prob}}. Variable-size
/// entries: the count is checked against the minimum entry size before
/// allocation and every k against the remaining bytes.
std::string EncodeClassifyReply(uint64_t correlation_id,
                                const std::vector<serve::ServiceResponse>& responses);
Status DecodeClassifyReply(std::string_view payload,
                           std::vector<serve::ServiceResponse>* out);

/// kAlign payload: u32 count, then per request {u32 item, u32 item_b,
/// u8 mode, u8 reserved (must be 0), u16 tenant, u32 deadline_micros}.
std::string EncodeAlign(uint64_t correlation_id,
                        const std::vector<serve::ServiceRequest>& requests,
                        serve::ServeClock::time_point now);
Status DecodeAlign(std::string_view payload, serve::ServeClock::time_point now,
                   std::vector<serve::ServiceRequest>* out);

}  // namespace pkgm::net

#endif  // PKGM_NET_WIRE_H_
