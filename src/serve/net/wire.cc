#include "serve/net/wire.h"

#include <cstring>

#include "common/check.h"

namespace stsm {
namespace serve {
namespace net {
namespace {

// ---- little-endian primitives ----------------------------------------------
// memcpy-based: this code only targets little-endian hosts (x86-64/aarch64),
// where the copy compiles to a plain load/store; memcpy keeps it free of
// alignment UB either way.

template <typename T>
void Append(T value, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

void AppendBytes(const void* data, size_t size, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + size);
  if (size > 0) std::memcpy(out->data() + at, data, size);
}

// Bounds-checked sequential reader over one payload.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* value) {
    if (size_ - at_ < sizeof(T)) return false;
    std::memcpy(value, data_ + at_, sizeof(T));
    at_ += sizeof(T);
    return true;
  }

  // True when exactly `count` elements of `elem_size` bytes remain readable.
  // The division avoids count * elem_size overflow on hostile counts.
  bool CanRead(size_t count, size_t elem_size) const {
    return count <= (size_ - at_) / elem_size;
  }

  bool ReadBytes(void* out, size_t size) {
    if (size_ - at_ < size) return false;
    if (size > 0) std::memcpy(out, data_ + at_, size);
    at_ += size;
    return true;
  }

  size_t remaining() const { return size_ - at_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t at_ = 0;
};

bool Fail(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

void AppendHeader(FrameType type, size_t payload_bytes,
                  std::vector<uint8_t>* out) {
  STSM_CHECK_LE(payload_bytes, kMaxPayloadBytes)
      << "frame payload exceeds the wire cap";
  Append<uint32_t>(kMagic, out);
  Append<uint8_t>(kWireVersion, out);
  Append<uint8_t>(static_cast<uint8_t>(type), out);
  Append<uint16_t>(0, out);  // reserved
  Append<uint32_t>(static_cast<uint32_t>(payload_bytes), out);
}

}  // namespace

void EncodeRequest(const RequestFrame& frame, std::vector<uint8_t>* out) {
  const ForecastRequest& request = frame.request;
  STSM_CHECK_LE(request.model.size(), kMaxModelNameBytes)
      << "model name too long for the wire";
  const size_t payload = 8 + 4 + 4 + 2 + 4 + 4 + request.model.size() +
                         4 * request.window.size() +
                         4 * request.regions.size();
  out->reserve(out->size() + kHeaderBytes + payload);
  AppendHeader(FrameType::kRequest, payload, out);
  Append<uint64_t>(frame.id, out);
  Append<uint32_t>(frame.deadline_ms, out);
  Append<int32_t>(request.start_step, out);
  Append<uint16_t>(static_cast<uint16_t>(request.model.size()), out);
  Append<uint32_t>(static_cast<uint32_t>(request.window.size()), out);
  Append<uint32_t>(static_cast<uint32_t>(request.regions.size()), out);
  AppendBytes(request.model.data(), request.model.size(), out);
  AppendBytes(request.window.data(), 4 * request.window.size(), out);
  AppendBytes(request.regions.data(), 4 * request.regions.size(), out);
}

void EncodeResponse(const ResponseFrame& frame, std::vector<uint8_t>* out) {
  const ForecastResponse& response = frame.response;
  // Server-generated detail strings are advisory; truncate rather than
  // refuse to answer.
  const size_t message_len =
      std::min(response.message.size(), kMaxMessageBytes);
  const size_t payload =
      8 + 1 + 1 + 2 + 4 + 4 + 4 + message_len + 4 * response.forecast.size();
  out->reserve(out->size() + kHeaderBytes + payload);
  AppendHeader(FrameType::kResponse, payload, out);
  Append<uint64_t>(frame.id, out);
  Append<uint8_t>(static_cast<uint8_t>(response.status), out);
  Append<uint8_t>(response.cache_hit ? kResponseFlagCacheHit : 0, out);
  Append<uint16_t>(static_cast<uint16_t>(message_len), out);
  Append<uint32_t>(static_cast<uint32_t>(response.horizon), out);
  Append<uint32_t>(static_cast<uint32_t>(response.batch_size), out);
  Append<uint32_t>(static_cast<uint32_t>(response.forecast.size()), out);
  AppendBytes(response.message.data(), message_len, out);
  AppendBytes(response.forecast.data(), 4 * response.forecast.size(), out);
}

DecodeResult DecodeHeader(const uint8_t* data, size_t size,
                          FrameHeader* header, std::string* error) {
  if (size < kHeaderBytes) return DecodeResult::kNeedMore;
  Reader reader(data, kHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint16_t reserved = 0;
  uint32_t payload_bytes = 0;
  reader.Read(&magic);
  reader.Read(&version);
  reader.Read(&type);
  reader.Read(&reserved);
  reader.Read(&payload_bytes);
  if (magic != kMagic) {
    Fail(error, "bad frame magic");
    return DecodeResult::kMalformed;
  }
  if (version != kWireVersion) {
    Fail(error, "unsupported wire version");
    return DecodeResult::kMalformed;
  }
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse)) {
    Fail(error, "unknown frame type");
    return DecodeResult::kMalformed;
  }
  if (reserved != 0) {
    Fail(error, "nonzero reserved field");
    return DecodeResult::kMalformed;
  }
  if (payload_bytes > kMaxPayloadBytes) {
    Fail(error, "frame payload exceeds the wire cap");
    return DecodeResult::kMalformed;
  }
  header->type = static_cast<FrameType>(type);
  header->payload_bytes = payload_bytes;
  return DecodeResult::kOk;
}

bool DecodeRequestPayload(const uint8_t* payload, size_t size,
                          RequestFrame* out, std::string* error) {
  Reader reader(payload, size);
  uint16_t model_len = 0;
  uint32_t window_len = 0;
  uint32_t region_count = 0;
  int32_t start_step = 0;
  if (!reader.Read(&out->id) || !reader.Read(&out->deadline_ms) ||
      !reader.Read(&start_step) || !reader.Read(&model_len) ||
      !reader.Read(&window_len) || !reader.Read(&region_count)) {
    return Fail(error, "request payload truncated");
  }
  if (model_len > kMaxModelNameBytes) {
    return Fail(error, "model name too long");
  }
  // Validate every count against the bytes actually present BEFORE sizing
  // any container: a hostile count must not drive an allocation.
  if (reader.remaining() < model_len ||
      !reader.CanRead(static_cast<size_t>(window_len) +
                          static_cast<size_t>(region_count),
                      4) ||
      reader.remaining() !=
          model_len + 4 * (static_cast<size_t>(window_len) +
                           static_cast<size_t>(region_count))) {
    return Fail(error, "request counts disagree with payload size");
  }
  ForecastRequest& request = out->request;
  request.start_step = start_step;
  request.model.resize(model_len);
  reader.ReadBytes(request.model.data(), model_len);
  request.window.resize(window_len);
  reader.ReadBytes(request.window.data(), 4 * static_cast<size_t>(window_len));
  request.regions.resize(region_count);
  reader.ReadBytes(request.regions.data(),
                   4 * static_cast<size_t>(region_count));
  request.deadline = Clock::time_point::max();  // Derived from deadline_ms.
  return true;
}

bool DecodeResponsePayload(const uint8_t* payload, size_t size,
                           ResponseFrame* out, std::string* error) {
  Reader reader(payload, size);
  uint8_t status = 0;
  uint8_t flags = 0;
  uint16_t message_len = 0;
  uint32_t horizon = 0;
  uint32_t batch_size = 0;
  uint32_t forecast_len = 0;
  if (!reader.Read(&out->id) || !reader.Read(&status) ||
      !reader.Read(&flags) || !reader.Read(&message_len) ||
      !reader.Read(&horizon) || !reader.Read(&batch_size) ||
      !reader.Read(&forecast_len)) {
    return Fail(error, "response payload truncated");
  }
  if (status > static_cast<uint8_t>(Status::kError)) {
    return Fail(error, "unknown status tag");
  }
  if ((flags & ~kResponseFlagCacheHit) != 0) {
    return Fail(error, "unknown response flag bits");
  }
  if (message_len > kMaxMessageBytes) {
    return Fail(error, "response message too long");
  }
  if (reader.remaining() < message_len ||
      !reader.CanRead(forecast_len, 4) ||
      reader.remaining() != message_len + 4 * static_cast<size_t>(forecast_len)) {
    return Fail(error, "response counts disagree with payload size");
  }
  ForecastResponse& response = out->response;
  response.status = static_cast<Status>(status);
  response.cache_hit = (flags & kResponseFlagCacheHit) != 0;
  response.horizon = static_cast<int>(horizon);
  response.batch_size = static_cast<int>(batch_size);
  response.message.resize(message_len);
  reader.ReadBytes(response.message.data(), message_len);
  response.forecast.resize(forecast_len);
  reader.ReadBytes(response.forecast.data(),
                   4 * static_cast<size_t>(forecast_len));
  return true;
}

}  // namespace net
}  // namespace serve
}  // namespace stsm
