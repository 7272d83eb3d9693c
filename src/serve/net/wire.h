// Length-prefixed binary frame protocol of the network forecast service.
//
// Every frame is a fixed 12-byte header followed by a payload:
//
//   offset size  field
//        0    4  magic       0x4D535453 ("STSM" in LE byte order)
//        4    1  version     kWireVersion
//        5    1  type        FrameType (1 = request, 2 = response)
//        6    2  reserved    must be 0
//        8    4  payload     payload byte count (<= kMaxPayloadBytes)
//
// Request payload (client -> server):
//
//   u64 id            echoed verbatim in the response — open-loop clients
//                     pipeline many requests per connection and match by id
//   u32 deadline_ms   relative deadline, applied at decode time (0 = none;
//                     relative because client and server clocks differ)
//   i32 start_step    window anchor for the time-of-day features
//   u16 model_len     registry name length (<= kMaxModelNameBytes)
//   u32 window_len    observation window float count
//   u32 region_count  forecast target count
//   ...  model name bytes, window floats, region i32s, in that order
//
// Response payload (server -> client):
//
//   u64 id, u8 status (Status tag), u8 flags (bit 0 = cache hit; every
//   other bit must be 0),
//   u16 message_len (<= kMaxMessageBytes), u32 horizon, u32 batch_size,
//   u32 forecast_len, then message bytes and forecast floats.
//
// All integers little-endian; floats are IEEE-754 bit patterns. Decoding is
// defensive: the header is rejected on bad magic/version/type or an
// oversized payload *before* any allocation, and payload counts are
// validated against the actual byte count before a vector is sized — a
// malformed frame can never cause an allocation blow-up. A malformed frame
// also means the byte stream can no longer be trusted, so the ingress
// closes the connection rather than resynchronise.

#ifndef STSM_SERVE_NET_WIRE_H_
#define STSM_SERVE_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/types.h"

namespace stsm {
namespace serve {
namespace net {

constexpr uint32_t kMagic = 0x4D535453;  // "STSM" read as LE u32.
constexpr uint8_t kWireVersion = 1;
constexpr size_t kHeaderBytes = 12;
// Generous for any [T x N] window this repo serves (16 MiB ~ a 4M-float
// window) while still bounding what a hostile length field can demand.
constexpr size_t kMaxPayloadBytes = 16u << 20;
constexpr size_t kMaxModelNameBytes = 256;
constexpr size_t kMaxMessageBytes = 1024;
// The one defined response flag; a response with any other flag bit set is
// malformed, so every accepted response re-encodes to its own bytes.
constexpr uint8_t kResponseFlagCacheHit = 1;

enum class FrameType : uint8_t { kRequest = 1, kResponse = 2 };

struct FrameHeader {
  FrameType type = FrameType::kRequest;
  uint32_t payload_bytes = 0;
};

struct RequestFrame {
  uint64_t id = 0;
  uint32_t deadline_ms = 0;  // 0 = no deadline.
  // request.deadline is NOT carried on the wire (clocks differ across
  // hosts); the ingress derives it from deadline_ms at decode time.
  ForecastRequest request;
};

struct ResponseFrame {
  uint64_t id = 0;
  // response.latency is not carried: the client measures its own
  // end-to-end latency, which is the number that includes the network.
  ForecastResponse response;
};

enum class DecodeResult {
  kOk,        // A complete, well-formed item was parsed.
  kNeedMore,  // The buffer ends mid-frame; read more bytes and retry.
  kMalformed, // The stream is corrupt; close the connection.
};

// Appends one complete frame (header + payload) to *out.
void EncodeRequest(const RequestFrame& frame, std::vector<uint8_t>* out);
void EncodeResponse(const ResponseFrame& frame, std::vector<uint8_t>* out);

// Parses the fixed header from the first kHeaderBytes of [data, size).
DecodeResult DecodeHeader(const uint8_t* data, size_t size,
                          FrameHeader* header, std::string* error);

// Parse a payload of exactly `size` bytes (the header's payload_bytes).
// Returns false (with *error set) on any inconsistency.
bool DecodeRequestPayload(const uint8_t* payload, size_t size,
                          RequestFrame* out, std::string* error);
bool DecodeResponsePayload(const uint8_t* payload, size_t size,
                           ResponseFrame* out, std::string* error);

}  // namespace net
}  // namespace serve
}  // namespace stsm

#endif  // STSM_SERVE_NET_WIRE_H_
