// Wire-protocol tests: round-trips for every status tag and boundary tensor
// size, defensive decoding of truncated, oversized, and garbage frames
// — a hostile length field must be rejected before it can size a buffer —
// and a seeded mutation sweep (bit flips, truncations, random byte edits,
// length and count field edits) over encoded requests and responses.

#include "serve/net/wire.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace stsm {
namespace serve {
namespace net {
namespace {

RequestFrame MakeRequest() {
  RequestFrame frame;
  frame.id = 0x0123456789ABCDEFull;
  frame.deadline_ms = 250;
  frame.request.model = "stsm";
  frame.request.start_step = -17;
  frame.request.window = {1.0f, -2.5f, 0.0f, 3.25f};
  frame.request.regions = {0, 3, 7};
  return frame;
}

// Decodes one encoded frame back through the header + payload path.
template <typename Frame>
bool RoundTrip(const std::vector<uint8_t>& bytes, Frame* out,
               bool (*decode)(const uint8_t*, size_t, Frame*, std::string*)) {
  FrameHeader header;
  std::string error;
  if (DecodeHeader(bytes.data(), bytes.size(), &header, &error) !=
      DecodeResult::kOk) {
    return false;
  }
  if (bytes.size() != kHeaderBytes + header.payload_bytes) return false;
  return decode(bytes.data() + kHeaderBytes, header.payload_bytes, out,
                &error);
}

TEST(WireTest, RequestRoundTrip) {
  const RequestFrame frame = MakeRequest();
  std::vector<uint8_t> bytes;
  EncodeRequest(frame, &bytes);
  RequestFrame decoded;
  ASSERT_TRUE(RoundTrip(bytes, &decoded, DecodeRequestPayload));
  EXPECT_EQ(decoded.id, frame.id);
  EXPECT_EQ(decoded.deadline_ms, frame.deadline_ms);
  EXPECT_EQ(decoded.request.model, frame.request.model);
  EXPECT_EQ(decoded.request.start_step, frame.request.start_step);
  EXPECT_EQ(decoded.request.window, frame.request.window);
  EXPECT_EQ(decoded.request.regions, frame.request.regions);
  // The absolute deadline is never carried across hosts.
  EXPECT_EQ(decoded.request.deadline, Clock::time_point::max());
}

TEST(WireTest, ResponseRoundTripEveryStatusTag) {
  for (Status status :
       {Status::kOk, Status::kDegraded, Status::kRejected, Status::kError}) {
    ResponseFrame frame;
    frame.id = 42;
    frame.response.status = status;
    frame.response.message = "detail";
    frame.response.forecast = {0.5f, -1.5f};
    frame.response.horizon = 4;
    frame.response.batch_size = 3;
    frame.response.cache_hit = (status == Status::kOk);
    std::vector<uint8_t> bytes;
    EncodeResponse(frame, &bytes);
    ResponseFrame decoded;
    ASSERT_TRUE(RoundTrip(bytes, &decoded, DecodeResponsePayload));
    EXPECT_EQ(decoded.id, 42u);
    EXPECT_EQ(decoded.response.status, status);
    EXPECT_EQ(decoded.response.message, "detail");
    EXPECT_EQ(decoded.response.forecast, frame.response.forecast);
    EXPECT_EQ(decoded.response.horizon, 4);
    EXPECT_EQ(decoded.response.batch_size, 3);
    EXPECT_EQ(decoded.response.cache_hit, frame.response.cache_hit);
  }
}

TEST(WireTest, ZeroLengthTensorsRoundTrip) {
  RequestFrame request;
  request.id = 1;  // Everything else at defaults: empty model/window/regions.
  std::vector<uint8_t> request_bytes;
  EncodeRequest(request, &request_bytes);
  EXPECT_EQ(request_bytes.size(), kHeaderBytes + 26);
  RequestFrame decoded_request;
  ASSERT_TRUE(RoundTrip(request_bytes, &decoded_request,
                        DecodeRequestPayload));
  EXPECT_TRUE(decoded_request.request.model.empty());
  EXPECT_TRUE(decoded_request.request.window.empty());
  EXPECT_TRUE(decoded_request.request.regions.empty());

  ResponseFrame response;
  response.id = 2;  // Empty message and forecast (the kRejected shape).
  response.response.status = Status::kRejected;
  std::vector<uint8_t> response_bytes;
  EncodeResponse(response, &response_bytes);
  ResponseFrame decoded_response;
  ASSERT_TRUE(RoundTrip(response_bytes, &decoded_response,
                        DecodeResponsePayload));
  EXPECT_TRUE(decoded_response.response.message.empty());
  EXPECT_TRUE(decoded_response.response.forecast.empty());
}

TEST(WireTest, MaxSizePayloadRoundTrips) {
  // Largest forecast that fits the payload cap exactly: fixed response
  // fields are 24 bytes, the rest is floats.
  const size_t forecast_len = (kMaxPayloadBytes - 24) / 4;
  ResponseFrame frame;
  frame.response.status = Status::kOk;
  frame.response.forecast.assign(forecast_len, 1.25f);
  std::vector<uint8_t> bytes;
  EncodeResponse(frame, &bytes);
  FrameHeader header;
  std::string error;
  ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header, &error),
            DecodeResult::kOk);
  EXPECT_EQ(header.payload_bytes, kMaxPayloadBytes);
  ResponseFrame decoded;
  ASSERT_TRUE(RoundTrip(bytes, &decoded, DecodeResponsePayload));
  EXPECT_EQ(decoded.response.forecast.size(), forecast_len);
}

// ---- header rejection ------------------------------------------------------

std::vector<uint8_t> RawHeader(uint32_t magic, uint8_t version, uint8_t type,
                               uint16_t reserved, uint32_t payload_bytes) {
  std::vector<uint8_t> bytes(kHeaderBytes);
  std::memcpy(bytes.data(), &magic, 4);
  bytes[4] = version;
  bytes[5] = type;
  std::memcpy(bytes.data() + 6, &reserved, 2);
  std::memcpy(bytes.data() + 8, &payload_bytes, 4);
  return bytes;
}

TEST(WireTest, ShortHeaderNeedsMoreBytes) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  FrameHeader header;
  std::string error;
  for (size_t len = 0; len < kHeaderBytes; ++len) {
    EXPECT_EQ(DecodeHeader(bytes.data(), len, &header, &error),
              DecodeResult::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireTest, HeaderRejectsGarbageAndWrongFields) {
  FrameHeader header;
  std::string error;
  const auto malformed = [&](const std::vector<uint8_t>& bytes) {
    return DecodeHeader(bytes.data(), bytes.size(), &header, &error) ==
           DecodeResult::kMalformed;
  };
  EXPECT_TRUE(malformed(RawHeader(0xDEADBEEF, kWireVersion, 1, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion + 1, 1, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 0, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 3, 0, 0)));
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 1, 7, 0)));
  // An oversized length field is rejected at the header, before any
  // allocation could be sized from it.
  EXPECT_TRUE(malformed(RawHeader(kMagic, kWireVersion, 1, 0,
                                  static_cast<uint32_t>(kMaxPayloadBytes) +
                                      1)));
  // All-garbage bytes fail on the magic.
  std::vector<uint8_t> garbage(kHeaderBytes, 0xA5);
  EXPECT_TRUE(malformed(garbage));
}

// ---- payload rejection -----------------------------------------------------

TEST(WireTest, TruncatedRequestPayloadRejected) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  const size_t payload_size = bytes.size() - kHeaderBytes;
  RequestFrame decoded;
  std::string error;
  for (size_t len = 0; len < payload_size; ++len) {
    EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes, len,
                                      &decoded, &error))
        << "truncated to " << len << " bytes";
  }
}

TEST(WireTest, TrailingBytesAfterRequestRejected) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  bytes.push_back(0);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes,
                                    bytes.size() - kHeaderBytes, &decoded,
                                    &error));
}

TEST(WireTest, HostileCountsRejectedWithoutAllocation) {
  // A tiny payload claiming 4 billion window floats: the count must be
  // checked against the actual bytes before any vector is sized.
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  const size_t window_len_at = kHeaderBytes + 8 + 4 + 4 + 2;
  const uint32_t hostile = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + window_len_at, &hostile, 4);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes,
                                    bytes.size() - kHeaderBytes, &decoded,
                                    &error));
  EXPECT_TRUE(decoded.request.window.empty());

  // Same through the region count.
  std::vector<uint8_t> bytes2;
  EncodeRequest(MakeRequest(), &bytes2);
  std::memcpy(bytes2.data() + window_len_at + 4, &hostile, 4);
  EXPECT_FALSE(DecodeRequestPayload(bytes2.data() + kHeaderBytes,
                                    bytes2.size() - kHeaderBytes, &decoded,
                                    &error));
}

TEST(WireTest, OverlongModelNameRejected) {
  std::vector<uint8_t> bytes;
  EncodeRequest(MakeRequest(), &bytes);
  const size_t model_len_at = kHeaderBytes + 8 + 4 + 4;
  const uint16_t overlong = kMaxModelNameBytes + 1;
  std::memcpy(bytes.data() + model_len_at, &overlong, 2);
  RequestFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestPayload(bytes.data() + kHeaderBytes,
                                    bytes.size() - kHeaderBytes, &decoded,
                                    &error));
  EXPECT_EQ(error, "model name too long");
}

TEST(WireTest, UnknownStatusTagRejected) {
  ResponseFrame frame;
  frame.response.status = Status::kOk;
  std::vector<uint8_t> bytes;
  EncodeResponse(frame, &bytes);
  bytes[kHeaderBytes + 8] = 9;  // Status byte past every known tag.
  ResponseFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeResponsePayload(bytes.data() + kHeaderBytes,
                                     bytes.size() - kHeaderBytes, &decoded,
                                     &error));
  EXPECT_EQ(error, "unknown status tag");
}

TEST(WireTest, UnknownResponseFlagBitsRejected) {
  ResponseFrame frame;
  frame.response.status = Status::kOk;
  frame.response.cache_hit = true;
  std::vector<uint8_t> bytes;
  EncodeResponse(frame, &bytes);
  bytes[kHeaderBytes + 9] |= 0x80;  // Flags byte: a bit no version defines.
  ResponseFrame decoded;
  std::string error;
  EXPECT_FALSE(DecodeResponsePayload(bytes.data() + kHeaderBytes,
                                     bytes.size() - kHeaderBytes, &decoded,
                                     &error));
  EXPECT_EQ(error, "unknown response flag bits");
}

TEST(WireTest, TruncatedResponsePayloadRejected) {
  ResponseFrame frame;
  frame.response.status = Status::kDegraded;
  frame.response.message = "deadline missed";
  frame.response.forecast = {1.0f, 2.0f, 3.0f};
  std::vector<uint8_t> bytes;
  EncodeResponse(frame, &bytes);
  const size_t payload_size = bytes.size() - kHeaderBytes;
  ResponseFrame decoded;
  std::string error;
  for (size_t len = 0; len < payload_size; ++len) {
    EXPECT_FALSE(DecodeResponsePayload(bytes.data() + kHeaderBytes, len,
                                       &decoded, &error))
        << "truncated to " << len << " bytes";
  }
}

// ---- seeded mutation sweep -------------------------------------------------
//
// Mutated encodings of real frames go through the header decode and the
// payload decoder the header's type names. Each one must be rejected
// (malformed, or incomplete so the ingress would wait for more bytes), or
// decode to a frame that re-encodes to exactly the bytes it was decoded
// from. Every candidate lives in a buffer of its exact length, so the
// ASan lane reports any read past the end.

enum class Outcome { kRejected, kRoundTrips, kReencodesDifferently };

Outcome DecodeAndReencode(const std::vector<uint8_t>& bytes) {
  FrameHeader header;
  std::string error;
  if (DecodeHeader(bytes.data(), bytes.size(), &header, &error) !=
      DecodeResult::kOk) {
    return Outcome::kRejected;
  }
  const size_t frame_bytes = kHeaderBytes + header.payload_bytes;
  if (bytes.size() < frame_bytes) return Outcome::kRejected;
  const std::vector<uint8_t> payload(bytes.begin() + kHeaderBytes,
                                     bytes.begin() + frame_bytes);
  std::vector<uint8_t> reencoded;
  if (header.type == FrameType::kRequest) {
    RequestFrame frame;
    if (!DecodeRequestPayload(payload.data(), payload.size(), &frame,
                              &error)) {
      return Outcome::kRejected;
    }
    EncodeRequest(frame, &reencoded);
  } else {
    ResponseFrame frame;
    if (!DecodeResponsePayload(payload.data(), payload.size(), &frame,
                               &error)) {
      return Outcome::kRejected;
    }
    EncodeResponse(frame, &reencoded);
  }
  const bool same = reencoded.size() == frame_bytes &&
                    std::equal(reencoded.begin(), reencoded.end(),
                               bytes.begin());
  return same ? Outcome::kRoundTrips : Outcome::kReencodesDifferently;
}

// Encoded frames of both types the mutations start from.
std::vector<std::vector<uint8_t>> SeedFrames() {
  std::vector<std::vector<uint8_t>> seeds;
  const auto request = [&](const RequestFrame& frame) {
    seeds.emplace_back();
    EncodeRequest(frame, &seeds.back());
  };
  const auto response = [&](const ResponseFrame& frame) {
    seeds.emplace_back();
    EncodeResponse(frame, &seeds.back());
  };
  request(MakeRequest());
  request(RequestFrame{});
  for (Status status :
       {Status::kOk, Status::kDegraded, Status::kRejected, Status::kError}) {
    ResponseFrame frame;
    frame.id = 77;
    frame.response.status = status;
    frame.response.cache_hit = status == Status::kOk;
    frame.response.message = status == Status::kOk ? "" : "deadline missed";
    frame.response.horizon = 2;
    frame.response.batch_size = 5;
    frame.response.forecast = {0.5f, -1.25f, 3.0f, 1e-3f};
    response(frame);
  }
  response(ResponseFrame{});
  return seeds;
}

// Byte offsets of every length or count field of one encoded frame, with
// the field's width: the header's payload length, then the request's
// model/window/region counts or the response's message/forecast counts.
std::vector<std::pair<size_t, size_t>> LengthFields(
    const std::vector<uint8_t>& frame) {
  std::vector<std::pair<size_t, size_t>> fields = {{8, 4}};
  if (frame[5] == static_cast<uint8_t>(FrameType::kRequest)) {
    const size_t at = kHeaderBytes + 8 + 4 + 4;  // id, deadline, start step
    fields.insert(fields.end(), {{at, 2}, {at + 2, 4}, {at + 6, 4}});
  } else {
    const size_t at = kHeaderBytes + 8 + 1 + 1;  // id, status, flags
    fields.insert(fields.end(), {{at, 2}, {at + 2 + 4 + 4, 4}});
  }
  return fields;
}

void WriteField(std::vector<uint8_t>* frame, size_t at, size_t width,
                uint64_t value) {
  for (size_t b = 0; b < width; ++b) {
    (*frame)[at + b] = static_cast<uint8_t>(value >> (8 * b));
  }
}

uint64_t ReadField(const std::vector<uint8_t>& frame, size_t at,
                   size_t width) {
  uint64_t value = 0;
  for (size_t b = 0; b < width; ++b) {
    value |= static_cast<uint64_t>(frame[at + b]) << (8 * b);
  }
  return value;
}

struct SweepTally {
  int rejected = 0;
  int round_trips = 0;
};

void Check(const std::vector<uint8_t>& candidate, const std::string& what,
           SweepTally* tally) {
  switch (DecodeAndReencode(candidate)) {
    case Outcome::kRejected:
      ++tally->rejected;
      break;
    case Outcome::kRoundTrips:
      ++tally->round_trips;
      break;
    case Outcome::kReencodesDifferently:
      ADD_FAILURE() << what << ": accepted, but re-encodes to other bytes";
      break;
  }
}

TEST(WireMutationTest, EveryTruncationIsRejected) {
  for (const std::vector<uint8_t>& seed : SeedFrames()) {
    EXPECT_EQ(DecodeAndReencode(seed), Outcome::kRoundTrips);
    for (size_t len = 0; len < seed.size(); ++len) {
      std::vector<uint8_t> prefix(seed.begin(), seed.begin() + len);
      // As cut, the frame is incomplete and the header path waits for
      // more bytes.
      EXPECT_EQ(DecodeAndReencode(prefix), Outcome::kRejected)
          << "prefix of " << len << " of " << seed.size() << " bytes";
      if (len < kHeaderBytes) continue;
      // With the header's payload length cut to match, the payload
      // decoder itself must reject the short payload.
      WriteField(&prefix, 8, 4, len - kHeaderBytes);
      EXPECT_EQ(DecodeAndReencode(prefix), Outcome::kRejected)
          << "payload cut to " << len - kHeaderBytes << " bytes";
    }
  }
}

TEST(WireMutationTest, EverySingleBitFlipIsRejectedOrRoundTrips) {
  SweepTally tally;
  const std::vector<std::vector<uint8_t>> seeds = SeedFrames();
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (size_t byte = 0; byte < seeds[s].size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> mutated = seeds[s];
        mutated[byte] ^= static_cast<uint8_t>(1u << bit);
        Check(mutated,
              "seed " + std::to_string(s) + " byte " + std::to_string(byte) +
                  " bit " + std::to_string(bit),
              &tally);
      }
    }
  }
  // Flips in ids and float payloads decode; flips in magic, version, type,
  // reserved bits, status, flags and counts are rejected.
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.round_trips, 0);
}

TEST(WireMutationTest, SeededRandomByteEditsAreRejectedOrRoundTrip) {
  SweepTally tally;
  const std::vector<std::vector<uint8_t>> seeds = SeedFrames();
  Rng rng(20240611);
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t s = static_cast<size_t>(rng.UniformInt(
        static_cast<int>(seeds.size())));
    std::vector<uint8_t> mutated = seeds[s];
    const int edits = 1 + rng.UniformInt(4);
    for (int e = 0; e < edits; ++e) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(mutated.size())));
      mutated[at] = static_cast<uint8_t>(rng.UniformInt(256));
    }
    // Some trials also cut the frame short or append bytes.
    const int resize = rng.UniformInt(5);
    if (resize == 0) {
      mutated.resize(static_cast<size_t>(
          rng.UniformInt(static_cast<int>(mutated.size()))));
    } else if (resize == 1) {
      mutated.resize(mutated.size() + 1 + rng.UniformInt(8),
                     static_cast<uint8_t>(rng.UniformInt(256)));
    }
    Check(mutated, "trial " + std::to_string(trial), &tally);
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.round_trips, 0);
}

TEST(WireMutationTest, LengthAndCountFieldEditsAreRejectedOrRoundTrip) {
  SweepTally tally;
  const std::vector<std::vector<uint8_t>> seeds = SeedFrames();
  Rng rng(7);
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (const auto& [at, width] : LengthFields(seeds[s])) {
      const uint64_t original = ReadField(seeds[s], at, width);
      const uint64_t max = width == 2 ? 0xFFFFull : 0xFFFFFFFFull;
      std::vector<uint64_t> values = {0,        1,        original - 1,
                                      original + 1, original * 2, max,
                                      max - 1,  max / 2 + 1};
      for (int r = 0; r < 16; ++r) values.push_back(rng.NextU64() & max);
      for (const uint64_t value : values) {
        // Each edit alone, then with 1 or 4 bytes appended or dropped and
        // the header's payload length moved to match, so an edited count
        // can agree with the payload size again: a forecast count raised
        // by one plus 4 appended bytes decodes.
        for (int tail : {0, 1, 4, -1, -4}) {
          std::vector<uint8_t> mutated = seeds[s];
          WriteField(&mutated, at, width, value & max);
          const size_t payload = mutated.size() - kHeaderBytes;
          if (tail < 0 && payload < static_cast<size_t>(-tail)) continue;
          mutated.resize(mutated.size() + tail, 0x3C);
          if (at != 8) WriteField(&mutated, 8, 4, payload + tail);
          Check(mutated,
                "seed " + std::to_string(s) + " field at " +
                    std::to_string(at) + " = " + std::to_string(value & max) +
                    " tail " + std::to_string(tail),
                &tally);
        }
      }
    }
  }
  EXPECT_GT(tally.rejected, 0);
  EXPECT_GT(tally.round_trips, 0);
}

}  // namespace
}  // namespace net
}  // namespace serve
}  // namespace stsm
