#include "net/wire.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__linux__)
#include <arm_acle.h>
#include <sys/auxv.h>
#endif

#include "util/string_util.h"

namespace pkgm::net {
namespace {

// ------------------------------------------------ little-endian plumbing --

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU16(uint16_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF32(float v, std::string* out) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits, out);
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kHostLittleEndian = true;
#else
constexpr bool kHostLittleEndian = false;
#endif

// Bulk little-endian runs: on little-endian hosts the wire layout matches
// memory, so row payloads (the gradient-push hot path) move with a single
// memcpy instead of a per-word loop.
void PutU32Run(const uint32_t* v, size_t n, std::string* out) {
  if (n == 0) return;
  if (kHostLittleEndian) {
    out->append(reinterpret_cast<const char*>(v), n * sizeof(uint32_t));
  } else {
    for (size_t i = 0; i < n; ++i) PutU32(v[i], out);
  }
}

void PutF32Run(const float* v, size_t n, std::string* out) {
  if (n == 0) return;
  if (kHostLittleEndian) {
    out->append(reinterpret_cast<const char*>(v), n * sizeof(float));
  } else {
    for (size_t i = 0; i < n; ++i) PutF32(v[i], out);
  }
}

uint32_t LoadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

void StoreU32(uint32_t v, char* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void LoadU32Run(const char* src, size_t n, uint32_t* out) {
  if (kHostLittleEndian) {
    if (n > 0) std::memcpy(out, src, n * sizeof(uint32_t));
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i] = LoadU32(src + 4 * i);
}

void LoadF32Run(const char* src, size_t n, float* out) {
  if (kHostLittleEndian) {
    if (n > 0) std::memcpy(out, src, n * sizeof(float));
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t bits = LoadU32(src + 4 * i);
    std::memcpy(&out[i], &bits, sizeof(float));
  }
}

/// Bounds-checked sequential reader over a payload. Every Read* returns
/// false instead of running past the end, so decoders degrade to a clean
/// Corruption status on truncated or garbled frames.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU16(uint16_t* v) {
    if (remaining() < 2) return false;
    *v = static_cast<uint16_t>(Byte(0) | (Byte(1) << 8));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    uint32_t lo, hi;
    if (remaining() < 8 || !ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
    return true;
  }

  bool ReadF32(float* v) {
    uint32_t bits;
    if (!ReadU32(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadU32Run(uint32_t* out, size_t n) {
    const char* src = Take(n * sizeof(uint32_t));
    if (src == nullptr) return false;
    LoadU32Run(src, n, out);
    return true;
  }

  /// The next `n` bytes in place (consumed), or nullptr when fewer remain.
  const char* Take(size_t n) {
    if (remaining() < n) return nullptr;
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }

  /// The rest of the payload as a view (consumes it).
  std::string_view ReadRemainder() {
    std::string_view rest = data_.substr(pos_);
    pos_ = data_.size();
    return rest;
  }

 private:
  uint32_t Byte(size_t i) const {
    return static_cast<uint8_t>(data_[pos_ + i]);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// ----------------------------------------------------------------- CRC32C --

constexpr uint32_t kCrc32cPoly = 0x82f63b78;  // Castagnoli, reflected

struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

constexpr size_t kGetVectorsEntryBytes = 12;
// Stream-buffer sizes for socket reads: connections that only ever carry
// small frames stay at the minimum; a read that fills the buffer doubles it
// for the next one, up to the maximum.
constexpr size_t kMinReadBytes = 4u << 10;
constexpr size_t kMaxReadBytes = 64u << 10;
constexpr size_t kVectorsEntryHeaderBytes = 8;
// The three v3 inference request kinds share one 16-byte entry layout:
// two u32 task operands, u8 mode, u8 reserved, u16 tenant, u32 deadline.
constexpr size_t kInferRequestEntryBytes = 16;
constexpr size_t kScoreReplyEntryBytes = 8;
constexpr size_t kClassifyReplyEntryHeaderBytes = 4;

Status Truncated(const char* what) {
  return Status::Corruption(StrFormat("truncated %s payload", what));
}

// Relative-deadline wire encoding shared by every request codec: 0 means
// "no deadline"; an already-expired deadline clamps to 1 so it stays
// distinguishable from none.
uint32_t RelativeDeadlineMicros(serve::ServeClock::time_point deadline,
                                serve::ServeClock::time_point now) {
  if (deadline == serve::ServeClock::time_point::max()) return 0;
  const auto remaining =
      std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
  if (remaining.count() <= 0) return 1;
  return static_cast<uint32_t>(std::min<int64_t>(
      remaining.count(), std::numeric_limits<uint32_t>::max()));
}

serve::ServeClock::time_point AbsoluteDeadline(
    uint32_t deadline_micros, serve::ServeClock::time_point now) {
  return deadline_micros == 0
             ? serve::ServeClock::time_point::max()
             : now + std::chrono::microseconds(deadline_micros);
}

#if defined(__x86_64__) || defined(__i386__)
// Advances a raw (uninverted) CRC32C register past `len` zero bytes, i.e.
// multiplies it by x^(8 len) mod P, for `len` a power of two. The map is
// linear over GF(2): it is built at compile time by squaring the map of one
// zero bit, and tabulated on each of the register's four bytes.
struct Crc32cShift {
  uint32_t table[4][256] = {};

  explicit constexpr Crc32cShift(size_t len) {
    uint32_t map[32];  // map[b]: the image of register bit b
    map[0] = kCrc32cPoly;
    for (int b = 1; b < 32; ++b) map[b] = 1u << (b - 1);
    for (size_t bits = 1; bits < 8 * len; bits *= 2) {
      uint32_t squared[32];
      for (int b = 0; b < 32; ++b) squared[b] = Apply(map, map[b]);
      for (int b = 0; b < 32; ++b) map[b] = squared[b];
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t n = 0; n < 256; ++n) {
        table[k][n] = Apply(map, n << (8 * k));
      }
    }
  }

  uint32_t operator()(uint32_t crc) const {
    return table[0][crc & 0xff] ^ table[1][(crc >> 8) & 0xff] ^
           table[2][(crc >> 16) & 0xff] ^ table[3][crc >> 24];
  }

 private:
  static constexpr uint32_t Apply(const uint32_t* map, uint32_t v) {
    uint32_t image = 0;
    for (int b = 0; v != 0; ++b, v >>= 1) {
      if (v & 1) image ^= map[b];
    }
    return image;
  }
};

// Three-stream block sizes: the long blocks cover large frames, the short
// ones most of what is left below 3 x 8 KiB.
constexpr size_t kCrcLongBlock = 8192;
constexpr size_t kCrcShortBlock = 256;
constexpr Crc32cShift kCrcLongShift(kCrcLongBlock);
constexpr Crc32cShift kCrcShortShift(kCrcShortBlock);

// Runs the register `crc` over as many 3 x `block`-byte blocks as `*len`
// holds. The crc32 instruction has a three-cycle latency and a throughput
// of one per cycle, so each block is split into thirds that run as three
// independent streams, and the two later thirds' registers are joined by
// shifting the earlier register past them. (Mark Adler's crc32c.c.)
__attribute__((target("sse4.2")))
uint64_t Crc32cThreeStreams(uint64_t crc, size_t block,
                            const Crc32cShift& shift, const uint8_t** data,
                            size_t* len) {
  const uint8_t* p = *data;
  for (; *len >= 3 * block; *len -= 3 * block, p += 3 * block) {
    uint64_t crc1 = 0, crc2 = 0;
    for (size_t i = 0; i < block; i += 8) {
      uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + block + i, 8);
      std::memcpy(&w2, p + 2 * block + i, 8);
      crc = _mm_crc32_u64(crc, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc = shift(static_cast<uint32_t>(crc)) ^ crc1;
    crc = shift(static_cast<uint32_t>(crc)) ^ crc2;
  }
  *data = p;
  return crc;
}

// SSE4.2 path: the dedicated crc32 instruction, three streams over 3 x 8 KiB
// and 3 x 256 B blocks, then one stream of 8-byte words and the last
// bytes. Compiled with a per-function target attribute so the TU itself
// needs no -msse4.2; only ever called after the runtime
// __builtin_cpu_supports check below.
__attribute__((target("sse4.2")))
uint32_t Crc32cSse42(const void* data, size_t len, uint32_t crc) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  c = Crc32cThreeStreams(c, kCrcLongBlock, kCrcLongShift, &bytes, &len);
  c = Crc32cThreeStreams(c, kCrcShortBlock, kCrcShortShift, &bytes, &len);
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    c = _mm_crc32_u64(c, word);
    bytes += 8;
    len -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (len > 0) {
    c32 = _mm_crc32_u8(c32, *bytes);
    ++bytes;
    --len;
  }
  return ~c32;
}
#elif defined(__aarch64__) && defined(__linux__)
// ARMv8 CRC extension path; gated at runtime on HWCAP_CRC32.
__attribute__((target("+crc")))
uint32_t Crc32cArmv8(const void* data, size_t len, uint32_t crc) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    c = __crc32cd(c, word);
    bytes += 8;
    len -= 8;
  }
  while (len > 0) {
    c = __crc32cb(c, *bytes);
    ++bytes;
    --len;
  }
  return ~c;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

struct Crc32cImpl {
  Crc32cFn fn;
  const char* name;
};

Crc32cImpl PickCrc32cImpl() {
  const char* env = std::getenv("PKGM_CRC32C");
  if (env != nullptr && std::string_view(env) == "sw") {
    return {&Crc32cSoftware, "software"};
  }
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse4.2")) {
    return {&Crc32cSse42, "sse4.2"};
  }
#elif defined(__aarch64__) && defined(__linux__)
  if ((getauxval(AT_HWCAP) & HWCAP_CRC32) != 0) {
    return {&Crc32cArmv8, "armv8-crc"};
  }
#endif
  return {&Crc32cSoftware, "software"};
}

const Crc32cImpl& ActiveCrc32c() {
  static const Crc32cImpl impl = PickCrc32cImpl();
  return impl;
}

}  // namespace

uint32_t Crc32cSoftware(const void* data, size_t len, uint32_t crc) {
  static const Crc32cTable table;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table.entries[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t len, uint32_t crc) {
  return ActiveCrc32c().fn(data, len, crc);
}

const char* Crc32cImplName() { return ActiveCrc32c().name; }

WireCode WireCodeFromResponse(serve::ResponseCode code) {
  switch (code) {
    case serve::ResponseCode::kOk: return WireCode::kOk;
    case serve::ResponseCode::kRejected: return WireCode::kRejected;
    case serve::ResponseCode::kDeadlineExceeded:
      return WireCode::kDeadlineExceeded;
    case serve::ResponseCode::kInvalidItem: return WireCode::kInvalidItem;
    case serve::ResponseCode::kNetworkError: return WireCode::kNetworkError;
    case serve::ResponseCode::kQuotaExceeded: return WireCode::kQuotaExceeded;
  }
  return WireCode::kNetworkError;
}

serve::ResponseCode ResponseCodeFromWire(WireCode code) {
  switch (code) {
    case WireCode::kOk: return serve::ResponseCode::kOk;
    case WireCode::kRejected: return serve::ResponseCode::kRejected;
    case WireCode::kDeadlineExceeded:
      return serve::ResponseCode::kDeadlineExceeded;
    case WireCode::kInvalidItem: return serve::ResponseCode::kInvalidItem;
    case WireCode::kQuotaExceeded: return serve::ResponseCode::kQuotaExceeded;
    case WireCode::kNetworkError:
    case WireCode::kUnsupported:
      return serve::ResponseCode::kNetworkError;
  }
  return serve::ResponseCode::kNetworkError;
}

size_t BeginFrame(FrameType type, uint64_t correlation_id, std::string* out) {
  const size_t start = out->size();
  PutU32(kWireMagic, out);
  PutU8(kWireVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  PutU16(0, out);  // flags
  PutU64(correlation_id, out);
  PutU32(0, out);  // payload_len, patched by FinishFrame
  PutU32(0, out);  // payload CRC32C, patched by FinishFrame
  return start;
}

void FinishFrame(size_t start, std::string* out) {
  const size_t payload_at = start + kFrameHeaderBytes;
  const size_t payload_len = out->size() - payload_at;
  char* header = out->data() + start;
  StoreU32(static_cast<uint32_t>(payload_len), header + 16);
  StoreU32(Crc32c(out->data() + payload_at, payload_len), header + 20);
}

void AppendFrame(FrameType type, uint64_t correlation_id,
                 std::string_view payload, std::string* out) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  const size_t start = BeginFrame(type, correlation_id, out);
  out->append(payload);
  FinishFrame(start, out);
}

std::string EncodeGetVectors(
    uint64_t correlation_id, const std::vector<serve::ServiceRequest>& requests,
    serve::ServeClock::time_point now) {
  std::string payload;
  payload.reserve(4 + requests.size() * kGetVectorsEntryBytes);
  PutU32(static_cast<uint32_t>(requests.size()), &payload);
  for (const serve::ServiceRequest& request : requests) {
    PutU32(request.item, &payload);
    PutU8(static_cast<uint8_t>(request.mode), &payload);
    PutU8(static_cast<uint8_t>(request.form), &payload);
    PutU16(request.tenant, &payload);
    PutU32(RelativeDeadlineMicros(request.deadline, now), &payload);
  }
  std::string frame;
  AppendFrame(FrameType::kGetVectors, correlation_id, payload, &frame);
  return frame;
}

std::string EncodeVectors(
    uint64_t correlation_id,
    const std::vector<serve::ServiceResponse>& responses) {
  std::string payload;
  PutU32(static_cast<uint32_t>(responses.size()), &payload);
  for (const serve::ServiceResponse& response : responses) {
    PutU8(static_cast<uint8_t>(WireCodeFromResponse(response.code)), &payload);
    PutU8(response.cache_hit ? 1 : 0, &payload);
    PutU16(0, &payload);
    PutU32(static_cast<uint32_t>(response.vectors.size()), &payload);
    for (const Vec& vec : response.vectors) {
      PutU32(static_cast<uint32_t>(vec.size()), &payload);
      for (size_t i = 0; i < vec.size(); ++i) PutF32(vec[i], &payload);
    }
  }
  std::string frame;
  AppendFrame(FrameType::kVectors, correlation_id, payload, &frame);
  return frame;
}

std::string EncodeError(uint64_t correlation_id, WireCode code,
                        std::string_view message) {
  std::string payload;
  PutU8(static_cast<uint8_t>(code), &payload);
  payload.append(message);
  std::string frame;
  AppendFrame(FrameType::kError, correlation_id, payload, &frame);
  return frame;
}

std::string EncodeStatsJson(uint64_t correlation_id, std::string_view json) {
  std::string frame;
  AppendFrame(FrameType::kStatsJson, correlation_id, json, &frame);
  return frame;
}

std::string EncodeControl(FrameType type, uint64_t correlation_id) {
  std::string frame;
  AppendFrame(type, correlation_id, {}, &frame);
  return frame;
}

void FrameDecoder::Compact(size_t capacity) {
  const size_t pending = end_ - begin_;
  if (capacity > buf_cap_) {
    std::unique_ptr<char[]> grown(new char[capacity]);
    if (pending > 0) std::memcpy(grown.get(), buf_.get() + begin_, pending);
    buf_ = std::move(grown);
    buf_cap_ = capacity;
  } else if (begin_ > 0 && pending > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, pending);
  }
  begin_ = 0;
  end_ = pending;
}

size_t FrameDecoder::PendingSmallFrameBytes() const {
  if (end_ - begin_ < kFrameHeaderBytes) return 0;
  const uint32_t payload_len = LoadU32(buf_.get() + begin_ + 16);
  return payload_len < kLargePayloadBytes ? kFrameHeaderBytes + payload_len
                                          : 0;
}

void FrameDecoder::Feed(const void* data, size_t len) {
  const char* bytes = static_cast<const char*>(data);
  if (LargePending()) {
    const size_t take =
        std::min<size_t>(len, large_header_.payload_len - large_filled_);
    if (large_filled_ + take > large_.size()) {
      large_.resize(std::min<size_t>(
          large_header_.payload_len,
          std::max(large_filled_ + take, 2 * large_.size())));
    }
    std::memcpy(large_.data() + large_filled_, bytes, take);
    large_filled_ += take;
    bytes += take;
    len -= take;
  }
  if (len == 0) return;
  if (buf_cap_ - end_ < len) {
    // Grow to fit, at least doubling so byte-at-a-time feeds stay linear.
    const size_t needed = end_ - begin_ + len;
    Compact(needed <= buf_cap_ ? buf_cap_ : std::max(needed, 2 * buf_cap_));
  }
  std::memcpy(buf_.get() + end_, bytes, len);
  end_ += len;
}

std::span<char> FrameDecoder::PrepareRead() {
  if (LargePending()) {
    if (large_filled_ == large_.size()) {
      large_.resize(std::min<size_t>(large_header_.payload_len,
                                     2 * large_.size()));
    }
    return {large_.data() + large_filled_, large_.size() - large_filled_};
  }
  size_t capacity = std::max(buf_cap_, kMinReadBytes);
  if (last_read_filled_) {
    capacity = std::max(capacity, std::min(2 * buf_cap_, kMaxReadBytes));
  }
  // A small frame is returned from the stream buffer, so it must fit whole.
  capacity = std::max(capacity, PendingSmallFrameBytes());
  if (capacity > buf_cap_ || begin_ > 0) Compact(capacity);
  if (end_ == buf_cap_) Compact(2 * buf_cap_);
  return {buf_.get() + end_, buf_cap_ - end_};
}

void FrameDecoder::CommitRead(size_t n) {
  if (LargePending()) {
    large_filled_ += n;
    return;
  }
  end_ += n;
  last_read_filled_ = end_ == buf_cap_;
}

FrameDecoder::Result FrameDecoder::Fail(std::string message,
                                        std::string* error) {
  poisoned_ = true;
  large_ = std::string();
  if (error != nullptr) *error = std::move(message);
  return Result::kError;
}

FrameDecoder::Result FrameDecoder::Next(Frame* frame, std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = "stream already failed protocol validation";
    return Result::kError;
  }
  if (in_large_) {
    if (LargePending()) return Result::kNeedMore;
    if (Crc32c(large_.data(), large_.size()) != large_header_.crc) {
      return Fail("payload CRC32C mismatch", error);
    }
    frame->type = static_cast<FrameType>(large_header_.type);
    frame->correlation_id = large_header_.correlation_id;
    frame->payload = std::move(large_);
    large_ = std::string();
    largest_large_payload_ =
        std::max<size_t>(largest_large_payload_, large_header_.payload_len);
    in_large_ = false;
    large_filled_ = 0;
    return Result::kFrame;
  }

  const size_t pending = end_ - begin_;
  if (pending < kFrameHeaderBytes) return Result::kNeedMore;
  const char* head = buf_.get() + begin_;
  Cursor cursor(std::string_view(head, kFrameHeaderBytes));
  uint32_t magic;
  uint8_t version;
  uint16_t flags;
  Header h;
  cursor.ReadU32(&magic);
  cursor.ReadU8(&version);
  cursor.ReadU8(&h.type);
  cursor.ReadU16(&flags);
  cursor.ReadU64(&h.correlation_id);
  cursor.ReadU32(&h.payload_len);
  cursor.ReadU32(&h.crc);

  if (magic != kWireMagic) {
    return Fail(StrFormat("bad magic 0x%08x", magic), error);
  }
  if (version != kWireVersion) {
    return Fail(StrFormat("unsupported wire version %u", version), error);
  }
  if (flags != 0) {
    return Fail(StrFormat("non-zero reserved flags 0x%04x", flags), error);
  }
  if (h.payload_len > max_frame_bytes_) {
    return Fail(StrFormat("payload length %u exceeds cap %zu", h.payload_len,
                          max_frame_bytes_),
                error);
  }
  const char* payload = head + kFrameHeaderBytes;
  const size_t have = pending - kFrameHeaderBytes;
  if (have >= h.payload_len) {
    if (Crc32c(payload, h.payload_len) != h.crc) {
      return Fail("payload CRC32C mismatch", error);
    }
    frame->type = static_cast<FrameType>(h.type);
    frame->correlation_id = h.correlation_id;
    frame->payload.assign(payload, h.payload_len);
    begin_ += kFrameHeaderBytes + h.payload_len;
    if (begin_ == end_) begin_ = end_ = 0;
    return Result::kFrame;
  }
  if (h.payload_len < kLargePayloadBytes) return Result::kNeedMore;

  // An incomplete large payload: every pending byte after the header is
  // its prefix, and the rest is received into its own buffer.
  large_.resize(std::min<size_t>(
      h.payload_len,
      std::max({2 * have, kLargePayloadBytes, largest_large_payload_})));
  if (have > 0) std::memcpy(large_.data(), payload, have);
  large_filled_ = have;
  large_header_ = h;
  in_large_ = true;
  begin_ = end_ = 0;
  return Result::kNeedMore;
}

Status DecodeGetVectors(std::string_view payload,
                        serve::ServeClock::time_point now,
                        std::vector<serve::ServiceRequest>* out) {
  Cursor cursor(payload);
  uint32_t count;
  if (!cursor.ReadU32(&count)) return Truncated("kGetVectors");
  // Allocation guard: the declared count must fit in the bytes actually
  // present before any reserve happens.
  if (static_cast<uint64_t>(count) * kGetVectorsEntryBytes !=
      cursor.remaining()) {
    return Status::Corruption(
        StrFormat("kGetVectors count %u disagrees with payload size %zu",
                  count, payload.size()));
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t item, deadline_micros;
    uint8_t mode, form;
    uint16_t tenant;
    if (!cursor.ReadU32(&item) || !cursor.ReadU8(&mode) ||
        !cursor.ReadU8(&form) || !cursor.ReadU16(&tenant) ||
        !cursor.ReadU32(&deadline_micros)) {
      return Truncated("kGetVectors");
    }
    if (mode > static_cast<uint8_t>(core::ServiceMode::kAll)) {
      return Status::Corruption(StrFormat("invalid service mode %u", mode));
    }
    if (form > static_cast<uint8_t>(serve::ServiceForm::kCondensed)) {
      return Status::Corruption(StrFormat("invalid service form %u", form));
    }
    serve::ServiceRequest request;
    request.item = item;
    request.mode = static_cast<core::ServiceMode>(mode);
    request.form = static_cast<serve::ServiceForm>(form);
    request.tenant = tenant;
    request.deadline = deadline_micros == 0
                           ? serve::ServeClock::time_point::max()
                           : now + std::chrono::microseconds(deadline_micros);
    out->push_back(request);
  }
  return Status::Ok();
}

Status DecodeVectors(std::string_view payload,
                     std::vector<serve::ServiceResponse>* out) {
  Cursor cursor(payload);
  uint32_t count;
  if (!cursor.ReadU32(&count)) return Truncated("kVectors");
  if (static_cast<uint64_t>(count) * kVectorsEntryHeaderBytes >
      cursor.remaining()) {
    return Status::Corruption(
        StrFormat("kVectors count %u exceeds payload size %zu", count,
                  payload.size()));
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t code, hit_flags;
    uint16_t reserved;
    uint32_t num_vectors;
    if (!cursor.ReadU8(&code) || !cursor.ReadU8(&hit_flags) ||
        !cursor.ReadU16(&reserved) || !cursor.ReadU32(&num_vectors)) {
      return Truncated("kVectors");
    }
    if (code > kMaxWireCode) {
      return Status::Corruption(StrFormat("invalid wire code %u", code));
    }
    // Each vector costs at least its 4-byte length prefix.
    if (static_cast<uint64_t>(num_vectors) * 4 > cursor.remaining()) {
      return Status::Corruption(
          StrFormat("kVectors entry declares %u vectors with %zu bytes left",
                    num_vectors, cursor.remaining()));
    }
    serve::ServiceResponse response;
    response.code = ResponseCodeFromWire(static_cast<WireCode>(code));
    response.cache_hit = (hit_flags & 1) != 0;
    response.vectors.reserve(num_vectors);
    for (uint32_t v = 0; v < num_vectors; ++v) {
      uint32_t len;
      if (!cursor.ReadU32(&len)) return Truncated("kVectors");
      if (static_cast<uint64_t>(len) * 4 > cursor.remaining()) {
        return Status::Corruption(
            StrFormat("kVectors vector length %u exceeds %zu bytes left", len,
                      cursor.remaining()));
      }
      std::vector<float> values(len);
      for (uint32_t j = 0; j < len; ++j) {
        if (!cursor.ReadF32(&values[j])) return Truncated("kVectors");
      }
      response.vectors.emplace_back(std::move(values));
    }
    out->push_back(std::move(response));
  }
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kVectors entries");
  }
  return Status::Ok();
}

Status DecodeError(std::string_view payload, WireCode* code,
                   std::string* message) {
  Cursor cursor(payload);
  uint8_t raw;
  if (!cursor.ReadU8(&raw)) return Truncated("kError");
  if (raw > kMaxWireCode) {
    return Status::Corruption(StrFormat("invalid wire code %u", raw));
  }
  *code = static_cast<WireCode>(raw);
  const std::string_view rest = cursor.ReadRemainder();
  message->assign(rest.data(), rest.size());
  return Status::Ok();
}

// ------------------------------------- distributed-training frames (v2) --

std::string EncodePullRows(uint64_t correlation_id,
                           const std::vector<PullSection>& sections) {
  std::string payload;
  size_t bytes = 4;
  for (const PullSection& s : sections) {
    bytes += 5 + 4 * s.ids.size() + 8 * s.versions.size();
  }
  payload.reserve(bytes);
  PutU32(static_cast<uint32_t>(sections.size()), &payload);
  for (const PullSection& s : sections) {
    PutU8(static_cast<uint8_t>(s.table) |
              (s.versions.empty() ? 0 : kVersionedSection),
          &payload);
    PutU32(static_cast<uint32_t>(s.ids.size()), &payload);
    PutU32Run(s.ids.data(), s.ids.size(), &payload);
    for (uint64_t v : s.versions) PutU64(v, &payload);
  }
  std::string frame;
  AppendFrame(FrameType::kPullRows, correlation_id, payload, &frame);
  return frame;
}

namespace {

// Splits a kPullRows / kRows table byte into the table and the versioned
// flag; only a transfer section may be versioned.
Status ParseTableByte(uint8_t byte, ParamTable* table, bool* versioned) {
  const uint8_t t = byte & ~kVersionedSection;
  *versioned = (byte & kVersionedSection) != 0;
  if (t > kMaxParamTable) {
    return Status::Corruption(StrFormat("invalid param table %u", byte));
  }
  *table = static_cast<ParamTable>(t);
  if (*versioned && *table != ParamTable::kTransfer) {
    return Status::Corruption(
        StrFormat("table %u cannot be versioned", static_cast<unsigned>(t)));
  }
  return Status::Ok();
}

}  // namespace

Status DecodePullRows(std::string_view payload,
                      std::vector<PullSection>* out) {
  Cursor cursor(payload);
  uint32_t num_sections;
  if (!cursor.ReadU32(&num_sections)) return Truncated("kPullRows");
  // Each section costs at least its 5-byte header.
  if (static_cast<uint64_t>(num_sections) * 5 > cursor.remaining()) {
    return Status::Corruption(
        StrFormat("kPullRows declares %u sections with %zu bytes left",
                  num_sections, cursor.remaining()));
  }
  out->clear();
  out->reserve(num_sections);
  for (uint32_t s = 0; s < num_sections; ++s) {
    uint8_t table;
    uint32_t count;
    if (!cursor.ReadU8(&table) || !cursor.ReadU32(&count)) {
      return Truncated("kPullRows");
    }
    PullSection section;
    bool versioned = false;
    PKGM_RETURN_IF_ERROR(ParseTableByte(table, &section.table, &versioned));
    const uint64_t id_bytes = versioned ? 12 : 4;
    if (static_cast<uint64_t>(count) * id_bytes > cursor.remaining()) {
      return Status::Corruption(
          StrFormat("kPullRows section declares %u ids with %zu bytes left",
                    count, cursor.remaining()));
    }
    section.ids.resize(count);
    if (!cursor.ReadU32Run(section.ids.data(), count)) {
      return Truncated("kPullRows");
    }
    if (versioned) {
      section.versions.resize(count);
      for (uint64_t& v : section.versions) {
        if (!cursor.ReadU64(&v)) return Truncated("kPullRows");
      }
    }
    out->push_back(std::move(section));
  }
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kPullRows sections");
  }
  return Status::Ok();
}

namespace {

void PutRowsSectionHeader(ParamTable table, bool versioned, uint32_t row_size,
                          size_t count, std::string* out) {
  PutU8(static_cast<uint8_t>(table) | (versioned ? kVersionedSection : 0),
        out);
  PutU32(row_size, out);
  PutU32(static_cast<uint32_t>(count), out);
}

}  // namespace

std::string EncodeRows(uint64_t correlation_id,
                       const std::vector<RowsSection>& sections) {
  size_t bytes = kFrameHeaderBytes + 4;
  for (const RowsSection& s : sections) {
    bytes += kRowsSectionHeaderBytes + 4 * s.ids.size() + 4 * s.values.size() +
             s.answers.size();
  }
  std::string frame;
  frame.reserve(bytes);
  const size_t start = BeginFrame(FrameType::kRows, correlation_id, &frame);
  PutU32(static_cast<uint32_t>(sections.size()), &frame);
  for (const RowsSection& s : sections) {
    PutRowsSectionHeader(s.table, s.versioned, s.row_size, s.ids.size(),
                         &frame);
    PutU32Run(s.ids.data(), s.ids.size(), &frame);
    PutF32Run(s.values.data(), s.values.size(), &frame);
    frame.append(s.answers);
  }
  FinishFrame(start, &frame);
  return frame;
}

void AppendDenseAnswer(uint64_t version, const float* row, uint32_t row_size,
                       std::string* out) {
  PutU64(version, out);
  PutU32(kDenseAnswer, out);
  PutF32Run(row, row_size, out);
}

void AppendLogAnswer(uint64_t version, std::string_view records,
                     std::string* out) {
  PutU64(version, out);
  PutU32(static_cast<uint32_t>(records.size()), out);
  out->append(records);
}

void AppendRowsFrame(uint64_t correlation_id,
                     const std::vector<PullSection>& sections,
                     const std::vector<uint32_t>& row_sizes,
                     const RowSource& row, const AnswerSource& answer,
                     std::string* out) {
  size_t bytes = kFrameHeaderBytes + 4;
  for (size_t s = 0; s < sections.size(); ++s) {
    // A versioned answer is at most its header and the dense row.
    const size_t entry_bytes =
        4 + 4 * static_cast<size_t>(row_sizes[s]) +
        (sections[s].versions.empty() ? 0 : kAnswerHeaderBytes);
    bytes += kRowsSectionHeaderBytes + sections[s].ids.size() * entry_bytes;
  }
  out->reserve(out->size() + bytes);
  const size_t start = BeginFrame(FrameType::kRows, correlation_id, out);
  PutU32(static_cast<uint32_t>(sections.size()), out);
  for (size_t s = 0; s < sections.size(); ++s) {
    const PullSection& sec = sections[s];
    const bool versioned = !sec.versions.empty();
    PutRowsSectionHeader(sec.table, versioned, row_sizes[s], sec.ids.size(),
                         out);
    PutU32Run(sec.ids.data(), sec.ids.size(), out);
    for (size_t i = 0; i < sec.ids.size(); ++i) {
      if (versioned) {
        answer(sec.table, sec.ids[i], sec.versions[i], out);
      } else {
        PutF32Run(row(sec.table, sec.ids[i]), row_sizes[s], out);
      }
    }
  }
  FinishFrame(start, out);
}

uint32_t RowsView::id(size_t i) const { return LoadU32(ids + 4 * i); }

void RowsView::CopyRow(size_t i, float* dst) const {
  LoadF32Run(values + 4 * i * row_size, row_size, dst);
}

const char* RowsView::ReadAnswer(const char* p, RowAnswer* out) const {
  out->version = static_cast<uint64_t>(LoadU32(p)) |
                 (static_cast<uint64_t>(LoadU32(p + 4)) << 32);
  const uint32_t log_bytes = LoadU32(p + 8);
  p += kAnswerHeaderBytes;
  if (log_bytes == kDenseAnswer) {
    out->row = p;
    out->log = {};
    return p + 4 * static_cast<size_t>(row_size);
  }
  out->row = nullptr;
  out->log = std::string_view(p, log_bytes);
  return p + log_bytes;
}

void RowsView::CopyAnswerRow(const RowAnswer& answer, float* dst) const {
  LoadF32Run(answer.row, row_size, dst);
}

Status DecodeRowsView(std::string_view payload, std::vector<RowsView>* out) {
  Cursor cursor(payload);
  uint32_t num_sections;
  if (!cursor.ReadU32(&num_sections)) return Truncated("kRows");
  if (static_cast<uint64_t>(num_sections) * kRowsSectionHeaderBytes >
      cursor.remaining()) {
    return Status::Corruption(
        StrFormat("kRows declares %u sections with %zu bytes left",
                  num_sections, cursor.remaining()));
  }
  out->clear();
  out->reserve(num_sections);
  for (uint32_t s = 0; s < num_sections; ++s) {
    uint8_t table;
    RowsView view;
    if (!cursor.ReadU8(&table) || !cursor.ReadU32(&view.row_size) ||
        !cursor.ReadU32(&view.count)) {
      return Truncated("kRows");
    }
    PKGM_RETURN_IF_ERROR(ParseTableByte(table, &view.table, &view.versioned));
    // Entry cost: 4-byte id + row_size floats, or for a versioned answer
    // at least its header. Dividing (rather than multiplying count * entry)
    // keeps the guard overflow-proof.
    const uint64_t row_bytes = static_cast<uint64_t>(view.row_size) * 4;
    const uint64_t entry_bytes = 4 + (view.versioned ? kAnswerHeaderBytes
                                                     : row_bytes);
    if (view.count > 0 && entry_bytes > cursor.remaining() / view.count) {
      return Status::Corruption(StrFormat(
          "kRows section declares %u rows of %u floats with %zu bytes left",
          view.count, view.row_size, cursor.remaining()));
    }
    view.ids = cursor.Take(4 * static_cast<size_t>(view.count));
    if (!view.versioned) {
      view.values = cursor.Take(static_cast<size_t>(view.count * row_bytes));
      out->push_back(view);
      continue;
    }
    const size_t answers_start = payload.size() - cursor.remaining();
    for (uint32_t i = 0; i < view.count; ++i) {
      uint64_t version;
      uint32_t log_bytes;
      if (!cursor.ReadU64(&version) || !cursor.ReadU32(&log_bytes)) {
        return Truncated("kRows");
      }
      const uint64_t body = log_bytes == kDenseAnswer ? row_bytes : log_bytes;
      if (body > row_bytes) {
        return Status::Corruption(StrFormat(
            "kRows log answer of %u bytes outgrows its %u-float row",
            log_bytes, view.row_size));
      }
      if (cursor.Take(static_cast<size_t>(body)) == nullptr) {
        return Truncated("kRows");
      }
    }
    view.answers = payload.data() + answers_start;
    view.answer_bytes = payload.size() - cursor.remaining() - answers_start;
    out->push_back(view);
  }
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kRows sections");
  }
  return Status::Ok();
}

Status DecodeRows(std::string_view payload, std::vector<RowsSection>* out) {
  std::vector<RowsView> views;
  PKGM_RETURN_IF_ERROR(DecodeRowsView(payload, &views));
  out->clear();
  out->reserve(views.size());
  for (const RowsView& view : views) {
    RowsSection section;
    section.table = view.table;
    section.row_size = view.row_size;
    section.versioned = view.versioned;
    section.ids.resize(view.count);
    LoadU32Run(view.ids, view.count, section.ids.data());
    if (view.versioned) {
      section.answers.assign(view.answers, view.answer_bytes);
    } else {
      section.values.resize(static_cast<size_t>(view.count) * view.row_size);
      LoadF32Run(view.values, section.values.size(), section.values.data());
    }
    out->push_back(std::move(section));
  }
  return Status::Ok();
}

std::string EncodePushGrads(uint64_t correlation_id, float scale,
                            uint32_t epoch, std::string_view arena_blob) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + kPushGradsPrefixBytes + arena_blob.size());
  const size_t start = BeginPushGrads(correlation_id, scale, epoch, &frame);
  frame.append(arena_blob);
  FinishFrame(start, &frame);
  return frame;
}

size_t BeginPushGrads(uint64_t correlation_id, float scale, uint32_t epoch,
                      std::string* out) {
  const size_t start = BeginFrame(FrameType::kPushGrads, correlation_id, out);
  PutF32(scale, out);
  PutU32(epoch, out);
  return start;
}

Status DecodePushGrads(std::string_view payload, float* scale,
                       uint32_t* epoch, std::string_view* arena_blob) {
  Cursor cursor(payload);
  if (!cursor.ReadF32(scale) || !cursor.ReadU32(epoch)) {
    return Truncated("kPushGrads");
  }
  *arena_blob = cursor.ReadRemainder();
  return Status::Ok();
}

std::string EncodePushAck(uint64_t correlation_id, uint32_t rows_applied) {
  std::string payload;
  PutU32(rows_applied, &payload);
  std::string frame;
  AppendFrame(FrameType::kPushAck, correlation_id, payload, &frame);
  return frame;
}

Status DecodePushAck(std::string_view payload, uint32_t* rows_applied) {
  Cursor cursor(payload);
  if (!cursor.ReadU32(rows_applied)) return Truncated("kPushAck");
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kPushAck");
  }
  return Status::Ok();
}

std::string EncodeShardInfoReply(uint64_t correlation_id,
                                 const ShardInfo& info) {
  std::string payload;
  payload.reserve(36);
  PutU32(info.shard_index, &payload);
  PutU32(info.num_shards, &payload);
  PutU32(info.num_entities, &payload);
  PutU32(info.num_relations, &payload);
  PutU32(info.dim, &payload);
  PutU8(info.scorer, &payload);
  PutU8(info.use_relation_module ? 1 : 0, &payload);
  PutU8(info.optimizer, &payload);
  PutU8(info.kernel_isa, &payload);
  PutF32(info.learning_rate, &payload);
  PutU64(info.model_seed, &payload);
  std::string frame;
  AppendFrame(FrameType::kShardInfoReply, correlation_id, payload, &frame);
  return frame;
}

Status DecodeShardInfoReply(std::string_view payload, ShardInfo* out) {
  Cursor cursor(payload);
  uint8_t relation_module;
  if (!cursor.ReadU32(&out->shard_index) || !cursor.ReadU32(&out->num_shards) ||
      !cursor.ReadU32(&out->num_entities) ||
      !cursor.ReadU32(&out->num_relations) || !cursor.ReadU32(&out->dim) ||
      !cursor.ReadU8(&out->scorer) || !cursor.ReadU8(&relation_module) ||
      !cursor.ReadU8(&out->optimizer) || !cursor.ReadU8(&out->kernel_isa) ||
      !cursor.ReadF32(&out->learning_rate) ||
      !cursor.ReadU64(&out->model_seed)) {
    return Truncated("kShardInfoReply");
  }
  if (relation_module > 1) {
    return Status::Corruption(
        StrFormat("invalid relation-module flag %u", relation_module));
  }
  if (out->num_shards == 0 || out->shard_index >= out->num_shards) {
    return Status::Corruption(StrFormat("invalid shard index %u of %u",
                                        out->shard_index, out->num_shards));
  }
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kShardInfoReply");
  }
  out->use_relation_module = relation_module != 0;
  return Status::Ok();
}

std::string EncodeBarrier(uint64_t correlation_id, uint32_t epoch,
                          uint32_t num_workers) {
  std::string payload;
  PutU32(epoch, &payload);
  PutU32(num_workers, &payload);
  std::string frame;
  AppendFrame(FrameType::kBarrier, correlation_id, payload, &frame);
  return frame;
}

Status DecodeBarrier(std::string_view payload, uint32_t* epoch,
                     uint32_t* num_workers) {
  Cursor cursor(payload);
  if (!cursor.ReadU32(epoch) || !cursor.ReadU32(num_workers)) {
    return Truncated("kBarrier");
  }
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kBarrier");
  }
  return Status::Ok();
}

std::string EncodeBarrierReply(uint64_t correlation_id, uint32_t epoch,
                               uint32_t workers_arrived) {
  std::string payload;
  PutU32(epoch, &payload);
  PutU32(workers_arrived, &payload);
  std::string frame;
  AppendFrame(FrameType::kBarrierReply, correlation_id, payload, &frame);
  return frame;
}

Status DecodeBarrierReply(std::string_view payload, uint32_t* epoch,
                          uint32_t* workers_arrived) {
  Cursor cursor(payload);
  if (!cursor.ReadU32(epoch) || !cursor.ReadU32(workers_arrived)) {
    return Truncated("kBarrierReply");
  }
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kBarrierReply");
  }
  return Status::Ok();
}

// ------------------------------------------ inference frames (v3) --------

namespace {

// Shared encoder for the three inference request frames, which differ only
// in the two u32 task operands carried per entry.
std::string EncodeInferRequests(
    FrameType type, uint64_t correlation_id,
    const std::vector<serve::ServiceRequest>& requests,
    serve::ServeClock::time_point now,
    uint32_t (*op_a)(const serve::ServiceRequest&),
    uint32_t (*op_b)(const serve::ServiceRequest&)) {
  std::string payload;
  payload.reserve(4 + requests.size() * kInferRequestEntryBytes);
  PutU32(static_cast<uint32_t>(requests.size()), &payload);
  for (const serve::ServiceRequest& request : requests) {
    PutU32(op_a(request), &payload);
    PutU32(op_b(request), &payload);
    PutU8(static_cast<uint8_t>(request.mode), &payload);
    PutU8(0, &payload);  // reserved
    PutU16(request.tenant, &payload);
    PutU32(RelativeDeadlineMicros(request.deadline, now), &payload);
  }
  std::string frame;
  AppendFrame(type, correlation_id, payload, &frame);
  return frame;
}

// Shared decoder for the fixed-size inference request entries; `fill`
// stores the two operands into the half-built request.
Status DecodeInferRequests(
    std::string_view payload, serve::ServeClock::time_point now,
    const char* what, serve::TaskKind task,
    void (*fill)(uint32_t a, uint32_t b, serve::ServiceRequest*),
    std::vector<serve::ServiceRequest>* out) {
  Cursor cursor(payload);
  uint32_t count;
  if (!cursor.ReadU32(&count)) return Truncated(what);
  // Allocation guard: entries are fixed-size, so the declared count must
  // match the bytes actually present exactly, before any reserve happens.
  // Trailing bytes fail this same check.
  if (static_cast<uint64_t>(count) * kInferRequestEntryBytes !=
      cursor.remaining()) {
    return Status::Corruption(
        StrFormat("%s count %u disagrees with payload size %zu", what, count,
                  payload.size()));
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t a, b, deadline_micros;
    uint8_t mode, reserved;
    uint16_t tenant;
    if (!cursor.ReadU32(&a) || !cursor.ReadU32(&b) || !cursor.ReadU8(&mode) ||
        !cursor.ReadU8(&reserved) || !cursor.ReadU16(&tenant) ||
        !cursor.ReadU32(&deadline_micros)) {
      return Truncated(what);
    }
    if (mode > static_cast<uint8_t>(core::ServiceMode::kAll)) {
      return Status::Corruption(StrFormat("invalid service mode %u", mode));
    }
    if (reserved != 0) {
      return Status::Corruption(
          StrFormat("%s reserved byte %u must be 0", what, reserved));
    }
    serve::ServiceRequest request;
    request.task = task;
    request.mode = static_cast<core::ServiceMode>(mode);
    request.form = serve::ServiceForm::kCondensed;
    request.tenant = tenant;
    request.deadline = AbsoluteDeadline(deadline_micros, now);
    fill(a, b, &request);
    out->push_back(request);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRecommend(uint64_t correlation_id,
                            const std::vector<serve::ServiceRequest>& requests,
                            serve::ServeClock::time_point now) {
  return EncodeInferRequests(
      FrameType::kRecommend, correlation_id, requests, now,
      [](const serve::ServiceRequest& r) { return r.user; },
      [](const serve::ServiceRequest& r) { return r.item; });
}

Status DecodeRecommend(std::string_view payload,
                       serve::ServeClock::time_point now,
                       std::vector<serve::ServiceRequest>* out) {
  return DecodeInferRequests(
      payload, now, "kRecommend", serve::TaskKind::kRecommend,
      [](uint32_t a, uint32_t b, serve::ServiceRequest* r) {
        r->user = a;
        r->item = b;
      },
      out);
}

std::string EncodeClassify(uint64_t correlation_id,
                           const std::vector<serve::ServiceRequest>& requests,
                           serve::ServeClock::time_point now) {
  return EncodeInferRequests(
      FrameType::kClassify, correlation_id, requests, now,
      [](const serve::ServiceRequest& r) { return r.item; },
      [](const serve::ServiceRequest& r) { return r.top_k; });
}

Status DecodeClassify(std::string_view payload,
                      serve::ServeClock::time_point now,
                      std::vector<serve::ServiceRequest>* out) {
  return DecodeInferRequests(
      payload, now, "kClassify", serve::TaskKind::kClassify,
      [](uint32_t a, uint32_t b, serve::ServiceRequest* r) {
        r->item = a;
        r->top_k = b;
      },
      out);
}

std::string EncodeAlign(uint64_t correlation_id,
                        const std::vector<serve::ServiceRequest>& requests,
                        serve::ServeClock::time_point now) {
  return EncodeInferRequests(
      FrameType::kAlign, correlation_id, requests, now,
      [](const serve::ServiceRequest& r) { return r.item; },
      [](const serve::ServiceRequest& r) { return r.item_b; });
}

Status DecodeAlign(std::string_view payload, serve::ServeClock::time_point now,
                   std::vector<serve::ServiceRequest>* out) {
  return DecodeInferRequests(
      payload, now, "kAlign", serve::TaskKind::kAlign,
      [](uint32_t a, uint32_t b, serve::ServiceRequest* r) {
        r->item = a;
        r->item_b = b;
      },
      out);
}

std::string EncodeScoreReply(
    FrameType type, uint64_t correlation_id,
    const std::vector<serve::ServiceResponse>& responses) {
  std::string payload;
  payload.reserve(4 + responses.size() * kScoreReplyEntryBytes);
  PutU32(static_cast<uint32_t>(responses.size()), &payload);
  for (const serve::ServiceResponse& response : responses) {
    PutU8(static_cast<uint8_t>(WireCodeFromResponse(response.code)), &payload);
    PutU8(response.cache_hit ? 1 : 0, &payload);
    PutU16(0, &payload);
    PutF32(response.score, &payload);
  }
  std::string frame;
  AppendFrame(type, correlation_id, payload, &frame);
  return frame;
}

Status DecodeScoreReply(std::string_view payload,
                        std::vector<serve::ServiceResponse>* out) {
  Cursor cursor(payload);
  uint32_t count;
  if (!cursor.ReadU32(&count)) return Truncated("score reply");
  // Fixed-size entries: exact match doubles as the trailing-byte check.
  if (static_cast<uint64_t>(count) * kScoreReplyEntryBytes !=
      cursor.remaining()) {
    return Status::Corruption(
        StrFormat("score reply count %u disagrees with payload size %zu",
                  count, payload.size()));
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t code, flags;
    uint16_t reserved;
    float score;
    if (!cursor.ReadU8(&code) || !cursor.ReadU8(&flags) ||
        !cursor.ReadU16(&reserved) || !cursor.ReadF32(&score)) {
      return Truncated("score reply");
    }
    if (code > kMaxWireCode) {
      return Status::Corruption(StrFormat("invalid wire code %u", code));
    }
    if (reserved != 0) {
      return Status::Corruption(StrFormat(
          "score reply reserved field %u must be 0", reserved));
    }
    serve::ServiceResponse response;
    response.code = ResponseCodeFromWire(static_cast<WireCode>(code));
    response.cache_hit = (flags & 1) != 0;
    response.score = score;
    out->push_back(std::move(response));
  }
  return Status::Ok();
}

std::string EncodeClassifyReply(
    uint64_t correlation_id,
    const std::vector<serve::ServiceResponse>& responses) {
  std::string payload;
  PutU32(static_cast<uint32_t>(responses.size()), &payload);
  for (const serve::ServiceResponse& response : responses) {
    PutU8(static_cast<uint8_t>(WireCodeFromResponse(response.code)), &payload);
    PutU8(response.cache_hit ? 1 : 0, &payload);
    const uint16_t k = static_cast<uint16_t>(std::min<size_t>(
        response.class_ids.size(), std::numeric_limits<uint16_t>::max()));
    PutU16(k, &payload);
    for (uint16_t j = 0; j < k; ++j) {
      PutU32(response.class_ids[j], &payload);
      PutF32(j < response.class_probs.size() ? response.class_probs[j] : 0.0f,
             &payload);
    }
  }
  std::string frame;
  AppendFrame(FrameType::kClassifyReply, correlation_id, payload, &frame);
  return frame;
}

Status DecodeClassifyReply(std::string_view payload,
                           std::vector<serve::ServiceResponse>* out) {
  Cursor cursor(payload);
  uint32_t count;
  if (!cursor.ReadU32(&count)) return Truncated("kClassifyReply");
  // Entries are variable-size; charge each at least its fixed header
  // before any reserve happens.
  if (static_cast<uint64_t>(count) * kClassifyReplyEntryHeaderBytes >
      cursor.remaining()) {
    return Status::Corruption(
        StrFormat("kClassifyReply count %u exceeds payload size %zu", count,
                  payload.size()));
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t code, flags;
    uint16_t k;
    if (!cursor.ReadU8(&code) || !cursor.ReadU8(&flags) ||
        !cursor.ReadU16(&k)) {
      return Truncated("kClassifyReply");
    }
    if (code > kMaxWireCode) {
      return Status::Corruption(StrFormat("invalid wire code %u", code));
    }
    // Each class costs 8 bytes (u32 id + f32 prob).
    if (static_cast<uint64_t>(k) * 8 > cursor.remaining()) {
      return Status::Corruption(StrFormat(
          "kClassifyReply entry declares %u classes with %zu bytes left", k,
          cursor.remaining()));
    }
    serve::ServiceResponse response;
    response.code = ResponseCodeFromWire(static_cast<WireCode>(code));
    response.cache_hit = (flags & 1) != 0;
    response.class_ids.resize(k);
    response.class_probs.resize(k);
    for (uint16_t j = 0; j < k; ++j) {
      if (!cursor.ReadU32(&response.class_ids[j]) ||
          !cursor.ReadF32(&response.class_probs[j])) {
        return Truncated("kClassifyReply");
      }
    }
    out->push_back(std::move(response));
  }
  if (!cursor.done()) {
    return Status::Corruption("trailing bytes after kClassifyReply entries");
  }
  return Status::Ok();
}

}  // namespace pkgm::net
