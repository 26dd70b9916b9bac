// Wire-codec robustness: round-trips for every frame type, incremental
// decoding over arbitrary fragmentation, and rejection of hostile input
// (truncation, oversize, corruption) without allocation blowups. These run
// under ASan/UBSan in CI, so "rejected cleanly" also means no UB.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "serve/request.h"

namespace pkgm::net {
namespace {

using serve::ResponseCode;
using serve::ServeClock;
using serve::ServiceForm;
using serve::ServiceRequest;
using serve::ServiceResponse;
using serve::TaskKind;

/// One request of every task kind with every operand set, across tenants
/// 0, 7 and 0xffff and no, real and expired deadlines.
std::vector<ServiceRequest> SampleRequests(ServeClock::time_point now) {
  std::vector<ServiceRequest> requests(5);
  requests[0].item = 7;  // a lookup: tenant 0, no deadline
  requests[1].item = 0xdeadbeef;
  requests[1].mode = core::ServiceMode::kRelationOnly;
  requests[1].form = ServiceForm::kSequence;
  requests[1].tenant = 7;
  requests[1].deadline = now + std::chrono::milliseconds(50);
  requests[2].task = TaskKind::kRecommend;
  requests[2].user = 0xfeedface;
  requests[2].item = 11;
  requests[2].tenant = 0xffff;
  requests[2].deadline = now - std::chrono::seconds(5);
  requests[3].task = TaskKind::kClassify;
  requests[3].item = 3;
  requests[3].top_k = 5;
  requests[3].mode = core::ServiceMode::kTripleOnly;
  requests[4].task = TaskKind::kAlign;
  requests[4].item = 4;
  requests[4].item_b = 0xcafef00d;
  return requests;
}

/// Replies of all four kinds plus every non-Ok code a server sends.
std::vector<ServiceResponse> SampleResponses() {
  std::vector<ServiceResponse> responses(9);
  responses[0].cache_hit = true;
  responses[0].vectors = {{1.5f, -2.25f, 0.0f}, {3.0f}};
  responses[1].vectors = {{}};
  responses[2].score = 0.875f;
  responses[3].score = -3.5f;  // alignment logits can be negative
  responses[4].class_ids = {4, 1, 7};
  responses[4].class_probs = {0.5f, 0.25f, 0.125f};
  responses[5].code = ResponseCode::kRejected;
  responses[6].code = ResponseCode::kDeadlineExceeded;
  responses[7].code = ResponseCode::kInvalidItem;
  responses[8].code = ResponseCode::kQuotaExceeded;
  return responses;
}

std::string Payload(const std::string& frame) {
  return frame.substr(kFrameHeaderBytes);
}

void PutU32At(std::string* bytes, size_t at, uint32_t v) {
  std::memcpy(bytes->data() + at, &v, sizeof(v));
}

/// Decodes exactly one frame from `bytes`, asserting full consumption.
Frame MustDecode(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame)
      << error;
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 zero bytes.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // "123456789" — the classic check value for CRC32C.
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xe3069283u);
  // Chaining must equal one-shot.
  EXPECT_EQ(Crc32c(digits + 4, 5, Crc32c(digits, 4)), 0xe3069283u);
}

TEST(WireTest, ServiceRequestsRoundTripEveryTask) {
  const auto now = ServeClock::now();
  const std::vector<ServiceRequest> requests = SampleRequests(now);
  const std::string bytes = EncodeServiceRequests(42, requests, now);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.type, FrameType::kServiceRequests);
  EXPECT_EQ(frame.correlation_id, 42u);
  EXPECT_EQ(frame.payload.size(), 4 + 20 * requests.size());

  std::vector<ServiceRequest> decoded;
  ASSERT_TRUE(DecodeServiceRequests(frame.payload, now, &decoded).ok());
  ASSERT_EQ(decoded.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(decoded[i].task, requests[i].task);
    EXPECT_EQ(decoded[i].item, requests[i].item);
    EXPECT_EQ(decoded[i].mode, requests[i].mode);
    EXPECT_EQ(decoded[i].form, requests[i].form);
    EXPECT_EQ(decoded[i].tenant, requests[i].tenant);
  }
  // Each task's operand travels; the others keep their defaults.
  EXPECT_EQ(decoded[0].user, 0u);
  EXPECT_EQ(decoded[0].item_b, 0u);
  EXPECT_EQ(decoded[0].top_k, 1u);
  EXPECT_EQ(decoded[2].user, 0xfeedfaceu);
  EXPECT_EQ(decoded[3].top_k, 5u);
  EXPECT_EQ(decoded[4].item_b, 0xcafef00du);
  EXPECT_EQ(decoded[4].user, 0u);
  // No deadline stays no deadline; a real deadline survives within the
  // microsecond quantization of the wire encoding; an expired one stays
  // expired.
  EXPECT_EQ(decoded[0].deadline, ServeClock::time_point::max());
  const auto skew = decoded[1].deadline - requests[1].deadline;
  EXPECT_LT(std::chrono::abs(skew), std::chrono::microseconds(2));
  EXPECT_NE(decoded[2].deadline, ServeClock::time_point::max());
  EXPECT_LE(decoded[2].deadline, now + std::chrono::microseconds(1));
  // Decoded against the same clock, the batch re-encodes to its bytes.
  EXPECT_EQ(EncodeServiceRequests(42, decoded, now), bytes);
}

TEST(WireTest, ServiceRepliesRoundTripEveryKind) {
  const std::vector<ServiceResponse> responses = SampleResponses();
  const std::string bytes = EncodeServiceReplies(99, responses);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.type, FrameType::kServiceReplies);
  EXPECT_EQ(frame.correlation_id, 99u);

  std::vector<ServiceResponse> decoded;
  ASSERT_TRUE(DecodeServiceReplies(frame.payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(decoded[i].code, responses[i].code);
    EXPECT_EQ(decoded[i].cache_hit, responses[i].cache_hit);
    EXPECT_EQ(std::memcmp(&decoded[i].score, &responses[i].score,
                          sizeof(float)),
              0);
    EXPECT_EQ(decoded[i].class_ids, responses[i].class_ids);
    EXPECT_EQ(decoded[i].class_probs, responses[i].class_probs);
    ASSERT_EQ(decoded[i].vectors.size(), responses[i].vectors.size());
    for (size_t v = 0; v < responses[i].vectors.size(); ++v) {
      // Bit-identical floats across the wire.
      ASSERT_EQ(decoded[i].vectors[v].size(), responses[i].vectors[v].size());
      if (responses[i].vectors[v].size() == 0) continue;  // data() may be null
      EXPECT_EQ(std::memcmp(decoded[i].vectors[v].data(),
                            responses[i].vectors[v].data(),
                            responses[i].vectors[v].size() * sizeof(float)),
                0);
    }
  }
  EXPECT_EQ(EncodeServiceReplies(99, decoded), bytes);
}

TEST(WireTest, ErrorRoundTrip) {
  const Frame frame =
      MustDecode(EncodeError(3, WireCode::kUnsupported, "nope"));
  EXPECT_EQ(frame.type, FrameType::kError);
  WireCode code;
  std::string message;
  ASSERT_TRUE(DecodeError(frame.payload, &code, &message).ok());
  EXPECT_EQ(code, WireCode::kUnsupported);
  EXPECT_EQ(message, "nope");
}

TEST(WireTest, ControlAndStatsRoundTrip) {
  Frame frame = MustDecode(EncodeControl(FrameType::kPing, 5));
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_TRUE(frame.payload.empty());

  frame = MustDecode(EncodeStatsJson(6, "{\"x\":1}"));
  EXPECT_EQ(frame.type, FrameType::kStatsJson);
  EXPECT_EQ(frame.payload, "{\"x\":1}");
}

TEST(WireTest, CodeMappingRoundTrips) {
  for (ResponseCode code :
       {ResponseCode::kOk, ResponseCode::kRejected,
        ResponseCode::kDeadlineExceeded, ResponseCode::kInvalidItem,
        ResponseCode::kQuotaExceeded}) {
    EXPECT_EQ(ResponseCodeFromWire(WireCodeFromResponse(code)), code);
  }
}

TEST(WireTest, QuotaExceededErrorCodeValidButNothingBeyond) {
  // kQuotaExceeded (6) extended the wire-code range; the decoders must
  // accept it and keep rejecting the first unassigned value.
  WireCode code;
  std::string message;
  const Frame frame =
      MustDecode(EncodeError(4, WireCode::kQuotaExceeded, "shed"));
  ASSERT_TRUE(DecodeError(frame.payload, &code, &message).ok());
  EXPECT_EQ(code, WireCode::kQuotaExceeded);
  EXPECT_EQ(message, "shed");

  std::string bad = frame.payload;
  bad[0] = static_cast<char>(static_cast<uint8_t>(kMaxWireCode) + 1);
  EXPECT_FALSE(DecodeError(bad, &code, &message).ok());
}

TEST(FrameDecoderTest, ByteAtATimeFragmentation) {
  const std::string bytes = EncodeServiceReplies(12, SampleResponses());
  FrameDecoder decoder;
  Frame frame;
  std::string error;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Feed(&bytes[i], 1);
    ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kNeedMore);
  }
  decoder.Feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.correlation_id, 12u);
}

TEST(FrameDecoderTest, MultipleFramesInOneFeed) {
  std::string bytes = EncodeControl(FrameType::kPing, 1);
  bytes += EncodeControl(FrameType::kPong, 2);
  bytes += EncodeError(3, WireCode::kOk, "");
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  for (uint64_t want = 1; want <= 3; ++want) {
    ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
    EXPECT_EQ(frame.correlation_id, want);
  }
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kNeedMore);
}

TEST(FrameDecoderTest, BadMagicPoisons) {
  std::string bytes = EncodeControl(FrameType::kPing, 1);
  bytes[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  // Poisoned: even valid bytes afterwards keep failing.
  const std::string good = EncodeControl(FrameType::kPing, 2);
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
}

TEST(FrameDecoderTest, BadVersionRejected) {
  std::string bytes = EncodeControl(FrameType::kPing, 1);
  bytes[4] = static_cast<char>(kWireVersion + 1);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  EXPECT_NE(error.find("version"), std::string::npos);
}

TEST(FrameDecoderTest, NonZeroFlagsRejected) {
  std::string bytes = EncodeControl(FrameType::kPing, 1);
  bytes[6] = 1;
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
}

TEST(FrameDecoderTest, CorruptPayloadFailsCrc) {
  std::string bytes = EncodeStatsJson(1, "{\"stats\":true}");
  bytes[kFrameHeaderBytes + 3] ^= 0x01;  // flip one payload bit
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  EXPECT_NE(error.find("CRC"), std::string::npos);
}

TEST(FrameDecoderTest, OversizedFrameRejectedBeforeBuffering) {
  // Header declares a payload far over the cap; the decoder must reject on
  // the header alone — long before that many bytes ever arrive.
  std::string bytes = EncodeStatsJson(1, "x");
  const uint32_t huge = 0x7fffffff;
  std::memcpy(&bytes[16], &huge, sizeof(huge));
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  decoder.Feed(bytes.data(), kFrameHeaderBytes);
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  EXPECT_LT(decoder.buffered_bytes(), 1024u);
}

TEST(WireTest, TruncatedServingPayloadsRejected) {
  const auto now = ServeClock::now();
  const std::string requests =
      Payload(EncodeServiceRequests(1, SampleRequests(now), now));
  const std::string replies =
      Payload(EncodeServiceReplies(1, SampleResponses()));
  const auto requests_ok = [&](std::string_view p) {
    std::vector<ServiceRequest> out;
    return DecodeServiceRequests(p, now, &out).ok();
  };
  const auto replies_ok = [](std::string_view p) {
    std::vector<ServiceResponse> out;
    return DecodeServiceReplies(p, &out).ok();
  };
  ASSERT_TRUE(requests_ok(requests));
  ASSERT_TRUE(replies_ok(replies));
  // Every strict prefix must be rejected (never accepted short)...
  for (size_t len = 0; len < requests.size(); ++len) {
    EXPECT_FALSE(requests_ok(std::string_view(requests).substr(0, len)))
        << len;
  }
  for (size_t len = 0; len < replies.size(); ++len) {
    EXPECT_FALSE(replies_ok(std::string_view(replies).substr(0, len))) << len;
  }
  // ...and so must one trailing byte.
  EXPECT_FALSE(requests_ok(requests + '\0'));
  EXPECT_FALSE(replies_ok(replies + '\0'));
}

TEST(WireTest, HostileServingCountsRejectedBeforeAllocation) {
  // Counts claiming 2^30 entries against one entry's worth of bytes must
  // fail validation without attempting the implied allocation.
  const auto now = ServeClock::now();
  std::string requests =
      Payload(EncodeServiceRequests(1, std::vector<ServiceRequest>(1), now));
  PutU32At(&requests, 0, 1u << 30);
  std::vector<ServiceRequest> reqs;
  EXPECT_FALSE(DecodeServiceRequests(requests, now, &reqs).ok());
  EXPECT_TRUE(reqs.empty());

  // One entry holding one class and one one-float vector: count at 0, k at
  // 12, num_vectors at 24, the vector's len at 28.
  std::vector<ServiceResponse> one(1);
  one[0].class_ids = {2};
  one[0].class_probs = {1.0f};
  one[0].vectors = {{0.5f}};
  const std::string reply = Payload(EncodeServiceReplies(1, one));
  ASSERT_EQ(reply.size(), 36u);
  std::vector<ServiceResponse> resps;
  ASSERT_TRUE(DecodeServiceReplies(reply, &resps).ok());
  for (size_t at : {0, 12, 24, 28}) {
    for (uint32_t hostile : {1u << 30, 0x7fffffffu, 0xffffffffu}) {
      std::string bad = reply;
      PutU32At(&bad, at, hostile);
      EXPECT_FALSE(DecodeServiceReplies(bad, &resps).ok())
          << "field at " << at << " = " << hostile;
    }
  }
}

TEST(WireTest, BadServingFieldValuesRejected) {
  const auto now = ServeClock::now();
  std::vector<ServiceRequest> requests(2);
  requests[1].task = TaskKind::kClassify;
  requests[1].top_k = 3;
  const std::string payload =
      Payload(EncodeServiceRequests(1, requests, now));
  std::vector<ServiceRequest> out;
  ASSERT_TRUE(DecodeServiceRequests(payload, now, &out).ok());
  // Entry 0 (a lookup) at offset 4: task(1) mode(1) form(1) reserved(1)
  // tenant(2) reserved(2) item(4) operand(4) deadline(4).
  const auto rejected = [&](size_t at, uint8_t value) {
    std::string bad = payload;
    bad[4 + at] = static_cast<char>(value);
    return !DecodeServiceRequests(bad, now, &out).ok();
  };
  EXPECT_TRUE(rejected(0, serve::kMaxTaskKind + 1));
  EXPECT_TRUE(rejected(1, 0x7f));  // mode
  EXPECT_TRUE(rejected(2, 0x7f));  // form
  EXPECT_TRUE(rejected(3, 1));     // reserved u8
  EXPECT_TRUE(rejected(6, 1));     // reserved u16
  EXPECT_TRUE(rejected(7, 0x80));
  EXPECT_TRUE(rejected(12, 1));    // a lookup carries no operand
  // The classify entry's operand is its top_k: any value is valid.
  EXPECT_FALSE(rejected(20 + 12, 0xff));

  // Reply entry at offset 4: code(1) flags(1) reserved(2) score(4) ...
  std::vector<ServiceResponse> resp(1);
  const std::string reply = Payload(EncodeServiceReplies(1, resp));
  std::vector<ServiceResponse> rout;
  ASSERT_TRUE(DecodeServiceReplies(reply, &rout).ok());
  const auto reply_rejected = [&](size_t at, uint8_t value) {
    std::string bad = reply;
    bad[4 + at] = static_cast<char>(value);
    return !DecodeServiceReplies(bad, &rout).ok();
  };
  EXPECT_TRUE(reply_rejected(0, 0x7f));
  EXPECT_TRUE(reply_rejected(0, kMaxWireCode + 1));
  // A server never puts kNetworkError or kUnsupported in an entry.
  EXPECT_TRUE(reply_rejected(0, static_cast<uint8_t>(WireCode::kNetworkError)));
  EXPECT_TRUE(reply_rejected(0, static_cast<uint8_t>(WireCode::kUnsupported)));
  EXPECT_FALSE(
      reply_rejected(0, static_cast<uint8_t>(WireCode::kQuotaExceeded)));
  EXPECT_FALSE(reply_rejected(1, 1));  // cache_hit
  for (int bit = 1; bit < 8; ++bit) {
    EXPECT_TRUE(reply_rejected(1, static_cast<uint8_t>(1u << bit))) << bit;
  }
  EXPECT_TRUE(reply_rejected(2, 1));  // reserved u16
  EXPECT_TRUE(reply_rejected(3, 1));
}

TEST(WireTest, V4HeaderCutOffForServingFrames) {
  // The handshake is exact-match: a serving frame carrying an older version
  // byte must poison the decoder at the header, so a v4 peer can never
  // reach the v5 codecs.
  const auto now = ServeClock::now();
  for (uint8_t version = 1; version < kWireVersion; ++version) {
    std::string bytes =
        EncodeServiceRequests(1, std::vector<ServiceRequest>(1), now);
    bytes[4] = static_cast<char>(version);
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    std::string error;
    EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    // Poisoned: even a valid follow-up frame is refused.
    const std::string good = EncodeControl(FrameType::kPing, 2);
    decoder.Feed(good.data(), good.size());
    EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  }
}

TEST(Crc32cTest, HardwareMatchesSoftware) {
  // The dispatched implementation (hardware where the CPU has it) must be
  // bit-identical to the table-driven software oracle on every length and
  // alignment — the checksum guards the per-batch gradient push path.
  EXPECT_EQ(Crc32cSoftware("123456789", 9), 0xe3069283u);

  // The x86 path runs three streams over 3 x 8192- and 3 x 256-byte
  // blocks, so the lengths straddle both block sizes and a mix of them.
  constexpr size_t kLong = 3 * 8192, kShort = 3 * 256;
  const size_t lengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255,
                            1024, 1027, kShort - 1, kShort, kShort + 1,
                            kLong - 1, kLong, kLong + 1, kLong + kShort + 7,
                            (1u << 20) + 13};
  std::string buf((1u << 20) + 16, '\0');
  uint32_t state = 0x12345678u;
  for (size_t i = 0; i < buf.size(); ++i) {
    state = state * 1664525u + 1013904223u;  // LCG; any byte soup works
    buf[i] = static_cast<char>(state >> 24);
  }
  for (size_t len : lengths) {
    for (size_t offset : {size_t{0}, size_t{1}, size_t{3}}) {
      ASSERT_LE(offset + len, buf.size());
      EXPECT_EQ(Crc32c(buf.data() + offset, len),
                Crc32cSoftware(buf.data() + offset, len))
          << "len=" << len << " offset=" << offset;
    }
  }
  // Chained hardware == one-shot software across an arbitrary split, and
  // across one that lands inside a long block.
  EXPECT_EQ(Crc32c(buf.data() + 100, 900, Crc32c(buf.data(), 100)),
            Crc32cSoftware(buf.data(), 1000));
  EXPECT_EQ(Crc32c(buf.data() + 5000, 3 * kLong,
                   Crc32c(buf.data(), 5000, 0xdeadbeefu)),
            Crc32cSoftware(buf.data(), 5000 + 3 * kLong, 0xdeadbeefu));
  // The dispatcher reports a real implementation name.
  EXPECT_NE(Crc32cImplName(), nullptr);
}

// ---------------------------------------------------------------------------
// Distributed-training frames (v2)
// ---------------------------------------------------------------------------

TEST(DistWireTest, PullRowsRoundTrip) {
  std::vector<PullSection> sections(2);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {3, 1, 41, 0xffffffffu};
  sections[1].table = ParamTable::kTransfer;
  sections[1].ids = {7};
  const std::string bytes = EncodePullRows(99, sections);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.type, FrameType::kPullRows);
  EXPECT_EQ(frame.correlation_id, 99u);

  std::vector<PullSection> decoded;
  ASSERT_TRUE(DecodePullRows(frame.payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].table, ParamTable::kEntity);
  EXPECT_EQ(decoded[0].ids, sections[0].ids);
  EXPECT_EQ(decoded[1].table, ParamTable::kTransfer);
  EXPECT_EQ(decoded[1].ids, sections[1].ids);

  // Every strict prefix rejected; trailing garbage rejected; bad table
  // byte rejected.
  const std::string payload(frame.payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodePullRows(payload.substr(0, len), &decoded).ok());
  }
  std::string padded = payload;
  padded.push_back('\0');
  EXPECT_FALSE(DecodePullRows(padded, &decoded).ok());
  std::string bad_table = payload;
  bad_table[4] = 0x7f;  // table byte of section 0
  EXPECT_FALSE(DecodePullRows(bad_table, &decoded).ok());
}

TEST(DistWireTest, PullRowsHostileCountNoAllocationBlowup) {
  // A section count far beyond the payload must be rejected up front, not
  // fed to a vector reserve.
  std::string payload;
  const uint32_t huge = 0x40000000u;
  payload.append(reinterpret_cast<const char*>(&huge), 4);
  std::vector<PullSection> out;
  EXPECT_FALSE(DecodePullRows(payload, &out).ok());

  // Same for a per-section id count.
  std::vector<PullSection> one(1);
  one[0].ids = {1};
  std::string bytes = EncodePullRows(1, one);
  std::string inner = bytes.substr(kFrameHeaderBytes);
  std::memcpy(&inner[5], &huge, 4);  // id count of section 0
  EXPECT_FALSE(DecodePullRows(inner, &out).ok());
}

TEST(DistWireTest, RowsRoundTrip) {
  std::vector<RowsSection> sections(2);
  sections[0].table = ParamTable::kRelation;
  sections[0].row_size = 3;
  sections[0].ids = {5, 9};
  sections[0].values = {1.0f, -2.5f, 0.0f, 4.0f, 5.0f, -6.0f};
  sections[1].table = ParamTable::kHyperplane;
  sections[1].row_size = 2;
  sections[1].ids = {0};
  sections[1].values = {0.5f, -0.5f};
  const std::string bytes = EncodeRows(7, sections);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.type, FrameType::kRows);

  std::vector<RowsSection> decoded;
  ASSERT_TRUE(DecodeRows(frame.payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(decoded[s].table, sections[s].table);
    EXPECT_EQ(decoded[s].row_size, sections[s].row_size);
    EXPECT_EQ(decoded[s].ids, sections[s].ids);
    EXPECT_EQ(decoded[s].values, sections[s].values);
  }

  const std::string payload(frame.payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeRows(payload.substr(0, len), &decoded).ok());
  }
  std::string padded = payload;
  padded.push_back('\0');
  EXPECT_FALSE(DecodeRows(padded, &decoded).ok());

  // A count * row_size product that overflows past the payload must be
  // rejected before allocation.
  std::string hostile = payload;
  const uint32_t huge = 0x20000000u;
  std::memcpy(&hostile[5], &huge, 4);  // row_size of section 0
  EXPECT_FALSE(DecodeRows(hostile, &decoded).ok());
}

TEST(DistWireTest, VersionedPullRowsRoundTrip) {
  std::vector<PullSection> sections(2);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {4, 2};
  sections[1].table = ParamTable::kTransfer;
  sections[1].ids = {6, 0, 8};
  sections[1].versions = {0, 3, 0x123456789abcull};
  const Frame frame = MustDecode(EncodePullRows(5, sections));
  std::vector<PullSection> decoded;
  ASSERT_TRUE(DecodePullRows(frame.payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0].versions.empty());
  EXPECT_EQ(decoded[1].table, ParamTable::kTransfer);
  EXPECT_EQ(decoded[1].ids, sections[1].ids);
  EXPECT_EQ(decoded[1].versions, sections[1].versions);

  const std::string payload(frame.payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodePullRows(payload.substr(0, len), &decoded).ok());
  }
  // Payload: u32 sections | section 0: u8 table, u32 count, 2 ids (13 B) |
  // section 1: u8 table, u32 count, ... Only a transfer section may carry
  // versions.
  std::string entity_versioned = payload;
  entity_versioned[4] = static_cast<char>(kVersionedSection);
  EXPECT_FALSE(DecodePullRows(entity_versioned, &decoded).ok());
  // A versioned count is checked against 12 bytes per id up front.
  std::string hostile = payload;
  const uint32_t count = 4;  // 4 ids + versions need 48 bytes; 36 are left
  std::memcpy(&hostile[4 + 13 + 1], &count, 4);
  EXPECT_FALSE(DecodePullRows(hostile, &decoded).ok());
}

TEST(DistWireTest, VersionedRowsRoundTrip) {
  const std::vector<float> row = {1.0f, -0.0f, 2.5f, 4.0f};
  const std::string records = "\x01\x02\x03\x04\x05\x06\x07\x08";
  RowsSection sec;
  sec.table = ParamTable::kTransfer;
  sec.row_size = 4;
  sec.ids = {2, 4, 6};
  sec.versioned = true;
  AppendDenseAnswer(9, row.data(), sec.row_size, &sec.answers);
  AppendLogAnswer(0x100000003ull, records, &sec.answers);
  AppendLogAnswer(7, "", &sec.answers);  // an up-to-date row
  RowsSection plain;
  plain.table = ParamTable::kRelation;
  plain.row_size = 2;
  plain.ids = {1};
  plain.values = {3.0f, -3.0f};
  const Frame frame = MustDecode(EncodeRows(3, {plain, sec}));

  std::vector<RowsView> views;
  ASSERT_TRUE(DecodeRowsView(frame.payload, &views).ok());
  ASSERT_EQ(views.size(), 2u);
  EXPECT_FALSE(views[0].versioned);
  const RowsView& v = views[1];
  ASSERT_TRUE(v.versioned);
  EXPECT_EQ(v.table, ParamTable::kTransfer);
  EXPECT_EQ(v.count, 3u);
  EXPECT_EQ(v.id(2), 6u);
  RowAnswer a;
  const char* p = v.ReadAnswer(v.answers, &a);
  EXPECT_EQ(a.version, 9u);
  ASSERT_NE(a.row, nullptr);
  std::vector<float> got(4);
  v.CopyAnswerRow(a, got.data());
  EXPECT_EQ(std::memcmp(got.data(), row.data(), 16), 0);
  p = v.ReadAnswer(p, &a);
  EXPECT_EQ(a.version, 0x100000003ull);
  EXPECT_EQ(a.row, nullptr);
  EXPECT_EQ(a.log, records);
  p = v.ReadAnswer(p, &a);
  EXPECT_EQ(a.version, 7u);
  EXPECT_TRUE(a.log.empty());
  EXPECT_EQ(p, v.answers + v.answer_bytes);

  std::vector<RowsSection> decoded;
  ASSERT_TRUE(DecodeRows(frame.payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[1].versioned);
  EXPECT_EQ(decoded[1].answers, sec.answers);
  EXPECT_EQ(MustDecode(EncodeRows(3, decoded)).payload, frame.payload);

  const std::string payload(frame.payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeRows(payload.substr(0, len), &decoded).ok());
  }
  // Section 1 starts after u32 sections and section 0 (9 + 4 + 8 bytes);
  // its answers after its header and 3 ids.
  const size_t sec1 = 4 + 21;
  std::string relation_versioned = payload;
  relation_versioned[4] =
      static_cast<char>(static_cast<uint8_t>(ParamTable::kRelation) |
                        kVersionedSection);
  EXPECT_FALSE(DecodeRows(relation_versioned, &decoded).ok());
  // A log may be as long as the dense row, not longer.
  for (const size_t log_bytes : {16, 17}) {
    RowsSection one = sec;
    one.ids = {2};
    one.answers.clear();
    AppendLogAnswer(1, std::string(log_bytes, 'x'), &one.answers);
    EXPECT_EQ(DecodeRows(MustDecode(EncodeRows(3, {one})).payload, &decoded)
                  .ok(),
              log_bytes == 16);
  }
  // A versioned count is checked against 16 bytes per id up front.
  std::string hostile = payload;
  const uint32_t count = 0x10000000u;
  std::memcpy(&hostile[sec1 + 5], &count, 4);
  EXPECT_FALSE(DecodeRows(hostile, &decoded).ok());
}

TEST(DistWireTest, PushGradsRoundTrip) {
  const std::string blob = "not-a-real-arena-but-opaque-bytes";
  const std::string bytes = EncodePushGrads(13, 0.125f, 4, blob);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.type, FrameType::kPushGrads);

  float scale = 0.0f;
  uint32_t epoch = 0;
  std::string_view arena;
  ASSERT_TRUE(DecodePushGrads(frame.payload, &scale, &epoch, &arena).ok());
  EXPECT_EQ(scale, 0.125f);
  EXPECT_EQ(epoch, 4u);
  EXPECT_EQ(arena, blob);

  // Shorter than the fixed scale+epoch prefix: rejected.
  for (size_t len = 0; len < 8; ++len) {
    EXPECT_FALSE(
        DecodePushGrads(std::string_view(frame.payload).substr(0, len),
                        &scale, &epoch, &arena)
            .ok());
  }
  // An empty blob is legal at this layer (the arena codec rejects it).
  ASSERT_TRUE(DecodePushGrads(std::string_view(frame.payload).substr(0, 8),
                              &scale, &epoch, &arena)
                  .ok());
  EXPECT_TRUE(arena.empty());
}

TEST(DistWireTest, PushAckRoundTrip) {
  const std::string bytes = EncodePushAck(21, 777);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.type, FrameType::kPushAck);
  uint32_t rows = 0;
  ASSERT_TRUE(DecodePushAck(frame.payload, &rows).ok());
  EXPECT_EQ(rows, 777u);
  EXPECT_FALSE(DecodePushAck(std::string_view("abc"), &rows).ok());
  std::string padded(frame.payload);
  padded.push_back('\0');
  EXPECT_FALSE(DecodePushAck(padded, &rows).ok());
}

TEST(DistWireTest, ShardInfoReplyRoundTrip) {
  ShardInfo info;
  info.shard_index = 3;
  info.num_shards = 8;
  info.num_entities = 123456;
  info.num_relations = 42;
  info.dim = 64;
  info.scorer = 2;
  info.use_relation_module = false;
  info.optimizer = 1;
  info.learning_rate = 1e-4f;
  info.model_seed = 0xdeadbeefcafef00dULL;
  info.kernel_isa = 3;
  const std::string bytes = EncodeShardInfoReply(5, info);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.type, FrameType::kShardInfoReply);

  ShardInfo decoded;
  ASSERT_TRUE(DecodeShardInfoReply(frame.payload, &decoded).ok());
  EXPECT_EQ(decoded.shard_index, info.shard_index);
  EXPECT_EQ(decoded.num_shards, info.num_shards);
  EXPECT_EQ(decoded.num_entities, info.num_entities);
  EXPECT_EQ(decoded.num_relations, info.num_relations);
  EXPECT_EQ(decoded.dim, info.dim);
  EXPECT_EQ(decoded.scorer, info.scorer);
  EXPECT_EQ(decoded.use_relation_module, info.use_relation_module);
  EXPECT_EQ(decoded.optimizer, info.optimizer);
  EXPECT_EQ(decoded.learning_rate, info.learning_rate);
  EXPECT_EQ(decoded.model_seed, info.model_seed);
  EXPECT_EQ(decoded.kernel_isa, info.kernel_isa);

  const std::string payload(frame.payload);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeShardInfoReply(payload.substr(0, len), &decoded).ok());
  }
  std::string padded = payload;
  padded.push_back('\0');
  EXPECT_FALSE(DecodeShardInfoReply(padded, &decoded).ok());
}

TEST(DistWireTest, BarrierRoundTrip) {
  {
    const std::string bytes = EncodeBarrier(2, 17, 4);
    const Frame frame = MustDecode(bytes);
    EXPECT_EQ(frame.type, FrameType::kBarrier);
    uint32_t epoch = 0, workers = 0;
    ASSERT_TRUE(DecodeBarrier(frame.payload, &epoch, &workers).ok());
    EXPECT_EQ(epoch, 17u);
    EXPECT_EQ(workers, 4u);
    for (size_t len = 0; len < frame.payload.size(); ++len) {
      EXPECT_FALSE(
          DecodeBarrier(std::string_view(frame.payload).substr(0, len),
                        &epoch, &workers)
              .ok());
    }
  }
  {
    const std::string bytes = EncodeBarrierReply(2, 17, 4);
    const Frame frame = MustDecode(bytes);
    EXPECT_EQ(frame.type, FrameType::kBarrierReply);
    uint32_t epoch = 0, arrived = 0;
    ASSERT_TRUE(DecodeBarrierReply(frame.payload, &epoch, &arrived).ok());
    EXPECT_EQ(epoch, 17u);
    EXPECT_EQ(arrived, 4u);
    std::string padded(frame.payload);
    padded.push_back('\0');
    EXPECT_FALSE(DecodeBarrierReply(padded, &epoch, &arrived).ok());
  }
}

TEST(DistWireTest, V1HeaderCutOff) {
  // A v1 peer must be rejected at the header: same layout, older version
  // byte.
  std::string bytes = EncodeControl(FrameType::kPing, 1);
  bytes[4] = 1;  // version byte
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(FrameDecoderTest, BufferCompaction) {
  // Many small frames through one decoder: the internal buffer must not
  // grow with the total bytes ever fed (compaction reclaims consumed
  // prefixes).
  FrameDecoder decoder;
  Frame frame;
  std::string error;
  const std::string bytes = EncodeControl(FrameType::kPing, 1);
  for (int i = 0; i < 10000; ++i) {
    decoder.Feed(bytes.data(), bytes.size());
    ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Receive path: payloads of kLargePayloadBytes or more, PrepareRead /
// CommitRead, and the decoder's memory bound
// ---------------------------------------------------------------------------

/// A kStatsJson frame whose payload is exactly `len` patterned bytes.
std::string PatternFrame(uint64_t correlation_id, size_t len) {
  std::string payload(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<char>((i * 31 + correlation_id) % 251);
  }
  return EncodeStatsJson(correlation_id, payload);
}

/// Delivers `bytes` the way a socket reader does — read() into
/// PrepareRead(), CommitRead(), then Next() until kNeedMore — in chunks of
/// the given sizes (cycled), collecting every frame.
std::vector<Frame> ReadInChunks(FrameDecoder* decoder, const std::string& bytes,
                                const std::vector<size_t>& chunks) {
  std::vector<Frame> frames;
  size_t pos = 0;
  for (size_t c = 0; pos < bytes.size(); ++c) {
    const std::span<char> dst = decoder->PrepareRead();
    EXPECT_FALSE(dst.empty());
    const size_t n = std::min(
        {dst.size(), chunks[c % chunks.size()], bytes.size() - pos});
    std::memcpy(dst.data(), bytes.data() + pos, n);
    decoder->CommitRead(n);
    pos += n;
    Frame frame;
    std::string error;
    FrameDecoder::Result result;
    while ((result = decoder->Next(&frame, &error)) ==
           FrameDecoder::Result::kFrame) {
      frames.push_back(std::move(frame));
    }
    EXPECT_EQ(result, FrameDecoder::Result::kNeedMore) << error;
  }
  return frames;
}

/// The same through Feed().
std::vector<Frame> FeedInChunks(FrameDecoder* decoder, const std::string& bytes,
                                const std::vector<size_t>& chunks) {
  std::vector<Frame> frames;
  size_t pos = 0;
  for (size_t c = 0; pos < bytes.size(); ++c) {
    const size_t n = std::min(chunks[c % chunks.size()], bytes.size() - pos);
    decoder->Feed(bytes.data() + pos, n);
    pos += n;
    Frame frame;
    std::string error;
    FrameDecoder::Result result;
    while ((result = decoder->Next(&frame, &error)) ==
           FrameDecoder::Result::kFrame) {
      frames.push_back(std::move(frame));
    }
    EXPECT_EQ(result, FrameDecoder::Result::kNeedMore) << error;
  }
  return frames;
}

void ExpectSameFrame(const Frame& got, const std::string& encoded) {
  const Frame want = MustDecode(encoded);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.correlation_id, want.correlation_id);
  EXPECT_TRUE(got.payload == want.payload);
}

TEST(FrameDecoderTest, LargeFrameInUnevenChunks) {
  const std::string bytes = PatternFrame(5, 3 * kLargePayloadBytes + 77);
  for (const std::vector<size_t>& chunks :
       {std::vector<size_t>{1, 7, 4093, 65536, 13, 200000},
        std::vector<size_t>{24}, std::vector<size_t>{25, 100000},
        std::vector<size_t>{1u << 20}}) {
    FrameDecoder read_decoder;
    std::vector<Frame> frames = ReadInChunks(&read_decoder, bytes, chunks);
    ASSERT_EQ(frames.size(), 1u);
    ExpectSameFrame(frames[0], bytes);
    EXPECT_EQ(read_decoder.buffered_bytes(), 0u);

    FrameDecoder feed_decoder;
    frames = FeedInChunks(&feed_decoder, bytes, chunks);
    ASSERT_EQ(frames.size(), 1u);
    ExpectSameFrame(frames[0], bytes);
    EXPECT_EQ(feed_decoder.buffered_bytes(), 0u);
  }
}

TEST(FrameDecoderTest, ByteAtATimeAcrossLargeThreshold) {
  for (size_t len : {kLargePayloadBytes - 1, kLargePayloadBytes,
                     kLargePayloadBytes + 1}) {
    const std::string bytes = PatternFrame(len, len);
    FrameDecoder read_decoder;
    std::vector<Frame> frames = ReadInChunks(&read_decoder, bytes, {1});
    ASSERT_EQ(frames.size(), 1u) << len;
    ExpectSameFrame(frames[0], bytes);
    FrameDecoder feed_decoder;
    frames = FeedInChunks(&feed_decoder, bytes, {1});
    ASSERT_EQ(frames.size(), 1u) << len;
    ExpectSameFrame(frames[0], bytes);
  }
}

TEST(FrameDecoderTest, LargeFrameFollowedBySmallFrames) {
  const std::vector<std::string> parts = {
      PatternFrame(1, 2 * kLargePayloadBytes + 3),
      EncodeControl(FrameType::kPing, 2), PatternFrame(3, 100),
      PatternFrame(4, kLargePayloadBytes + 9),
      EncodeControl(FrameType::kPong, 5)};
  std::string stream;
  for (const std::string& part : parts) stream += part;
  for (const std::vector<size_t>& chunks :
       {std::vector<size_t>{stream.size()}, std::vector<size_t>{3000},
        std::vector<size_t>{kLargePayloadBytes + 200, 5}}) {
    for (bool socket : {true, false}) {
      FrameDecoder decoder;
      const std::vector<Frame> frames =
          socket ? ReadInChunks(&decoder, stream, chunks)
                 : FeedInChunks(&decoder, stream, chunks);
      ASSERT_EQ(frames.size(), parts.size());
      for (size_t i = 0; i < parts.size(); ++i) {
        ExpectSameFrame(frames[i], parts[i]);
      }
      EXPECT_EQ(decoder.buffered_bytes(), 0u);
    }
  }
}

TEST(FrameDecoderTest, FlippedBitInLargeFramePoisons) {
  std::string bytes = PatternFrame(9, 2 * kLargePayloadBytes);
  bytes[kFrameHeaderBytes + kLargePayloadBytes + 17] ^= 0x10;
  bytes += EncodeControl(FrameType::kPing, 10);
  FrameDecoder decoder;
  Frame frame;
  std::string error;
  FrameDecoder::Result result = FrameDecoder::Result::kNeedMore;
  for (size_t pos = 0;
       pos < bytes.size() && result == FrameDecoder::Result::kNeedMore;) {
    const std::span<char> dst = decoder.PrepareRead();
    const size_t n = std::min(dst.size(), bytes.size() - pos);
    std::memcpy(dst.data(), bytes.data() + pos, n);
    decoder.CommitRead(n);
    pos += n;
    result = decoder.Next(&frame, &error);
  }
  EXPECT_EQ(result, FrameDecoder::Result::kError);
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  // Poisoned for good: the valid ping behind it never comes out.
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kError);
}

TEST(FrameDecoderTest, HeaderAloneCannotPinMaxFrameBytes) {
  // A header declaring the largest legal payload, then 1 KiB of it: the
  // decoder's memory follows the bytes received, not the declared length.
  std::string bytes = PatternFrame(11, 1024);
  const uint32_t declared = static_cast<uint32_t>(kDefaultMaxFrameBytes);
  std::memcpy(&bytes[16], &declared, sizeof(declared));  // payload_len
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kNeedMore);
  EXPECT_LE(decoder.held_bytes(), 2 * bytes.size() + kLargePayloadBytes);
  EXPECT_EQ(decoder.buffered_bytes(), 1024u);
}

TEST(FrameDecoderTest, SecondLargeFrameAllocatedInOneStep) {
  const size_t len = 5 * kLargePayloadBytes;
  const std::string first = PatternFrame(1, len);
  const std::string second = PatternFrame(2, len);
  FrameDecoder decoder;
  Frame frame;
  std::string error;
  // First large payload on the stream: 64 KiB up front, then doubling.
  decoder.Feed(first.data(), kFrameHeaderBytes + 1024);
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(decoder.PrepareRead().size(), kLargePayloadBytes - 1024);
  decoder.Feed(first.data() + kFrameHeaderBytes + 1024,
               first.size() - kFrameHeaderBytes - 1024);
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame);
  ExpectSameFrame(frame, first);
  // The next one no larger than it: the whole payload in one step.
  decoder.Feed(second.data(), kFrameHeaderBytes + 1024);
  ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(decoder.PrepareRead().size(), len - 1024);
  const std::vector<Frame> rest = ReadInChunks(
      &decoder, second.substr(kFrameHeaderBytes + 1024), {len});
  ASSERT_EQ(rest.size(), 1u);
  ExpectSameFrame(rest[0], second);
}

}  // namespace
}  // namespace pkgm::net
