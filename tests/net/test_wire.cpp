// Wire-protocol seam tests, in the ArtifactHeader style: a known-good
// frame for every type, then a tamper matrix over every header field
// plus truncation, oversize, misalignment, and hostile payloads —
// each rejected as InvalidArgument at the parse_frame/validate seam,
// before any payload array is addressed.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace esl::net {
namespace {

FrameHeader valid_header() {
  FrameHeader header;
  header.type = static_cast<std::uint16_t>(FrameType::kHello);
  header.payload_bytes = sizeof(HelloPayload);
  return header;
}

TEST(WireValidate, AcceptsAFreshHeaderAndRejectsEveryTamperedField) {
  EXPECT_NO_THROW(validate(valid_header()));

  const auto rejects = [](void (*tamper)(FrameHeader&)) {
    FrameHeader header = valid_header();
    tamper(header);
    EXPECT_THROW(validate(header), InvalidArgument);
  };
  rejects([](FrameHeader& h) { h.magic ^= 0xFF; });           // foreign magic
  rejects([](FrameHeader& h) { h.version = k_wire_version + 1; });
  rejects([](FrameHeader& h) { h.endianness = 0x04030201u; });  // byte-swapped
  rejects([](FrameHeader& h) { h.real_bytes = sizeof(Real) / 2; });
  rejects([](FrameHeader& h) { h.type = 0; });                // below range
  rejects([](FrameHeader& h) { h.type = 200; });              // above range
  rejects([](FrameHeader& h) {  // retired label press, sized as it was
    h.type = 6;
    h.payload_bytes = 0;
  });
  rejects([](FrameHeader& h) {  // retired label ack, sized as it was
    h.type = 7;
    h.payload_bytes = 16;
  });
  rejects([](FrameHeader& h) {                                // oversized
    h.payload_bytes = static_cast<std::uint32_t>(k_max_payload_bytes) + 8;
  });
  rejects([](FrameHeader& h) { h.payload_bytes += 1; });      // misaligned
  rejects([](FrameHeader& h) { h.payload_bytes += 8; });      // wrong for type
  rejects([](FrameHeader& h) { h.payload_bytes = 0; });       // missing payload
  // Empty-payload types must not smuggle bytes.
  rejects([](FrameHeader& h) {
    h.type = static_cast<std::uint16_t>(FrameType::kFlush);
  });
}

TEST(WireValidate, VariableTypesAcceptAnyPayloadAtLeastThePrologue) {
  FrameHeader header = valid_header();
  header.type = static_cast<std::uint16_t>(FrameType::kChunk);
  header.payload_bytes = sizeof(ChunkPayload);
  EXPECT_NO_THROW(validate(header));
  header.payload_bytes = sizeof(ChunkPayload) + 64 * sizeof(Real);
  EXPECT_NO_THROW(validate(header));
  header.payload_bytes = 0;
  EXPECT_THROW(validate(header), InvalidArgument);
}

TEST(WireParse, RejectsTruncationAtEveryStage) {
  std::vector<std::byte> bytes;
  encode_hello(bytes, 7, HelloPayload{42});
  EXPECT_NO_THROW(parse_frame(bytes));

  // Shorter than a header.
  EXPECT_THROW(parse_frame(std::span<const std::byte>(bytes).first(8)),
               InvalidArgument);
  EXPECT_THROW(
      parse_frame(std::span<const std::byte>(bytes).first(sizeof(FrameHeader) -
                                                          1)),
      InvalidArgument);
  // Header intact but payload truncated.
  EXPECT_THROW(
      parse_frame(std::span<const std::byte>(bytes).first(bytes.size() - 1)),
      InvalidArgument);
  EXPECT_THROW(parse_frame({}), InvalidArgument);
}

TEST(WireParse, HeaderRoundTripsThroughEncodeAndParse) {
  std::vector<std::byte> bytes;
  encode_hello(bytes, 99, HelloPayload{0xABCDull});
  const FrameView view = parse_frame(bytes);
  EXPECT_EQ(view.header.magic, k_wire_magic);
  EXPECT_EQ(view.header.version, k_wire_version);
  EXPECT_EQ(view.header.endianness, k_wire_endianness);
  EXPECT_EQ(view.header.real_bytes, sizeof(Real));
  EXPECT_EQ(view.header.sequence, 99u);
  EXPECT_EQ(static_cast<FrameType>(view.header.type), FrameType::kHello);
  EXPECT_EQ(decode_hello(view).nonce, 0xABCDull);
}

TEST(WireDecode, RejectsADecoderTypeMismatch) {
  std::vector<std::byte> bytes;
  encode_hello(bytes, 1, HelloPayload{1});
  const FrameView view = parse_frame(bytes);
  EXPECT_THROW(decode_hello_ack(view), InvalidArgument);
  EXPECT_THROW(decode_chunk(view), InvalidArgument);
  EXPECT_THROW(decode_stats(view), InvalidArgument);
}

TEST(WireDecode, OpenSessionCarriesTheFullGeometryRoundTrip) {
  engine::SessionConfig config;
  config.sample_rate_hz = 512.0;
  config.window_seconds = 2.0;
  config.overlap = 0.5;
  config.alarm_consecutive = 5;
  config.history_seconds = 30.0;
  config.use_fleet_model = false;

  std::vector<std::byte> bytes;
  encode_open_session(bytes, 0xDEAD, 3, make_open_session(0x1234, config));
  const FrameView view = parse_frame(bytes);
  EXPECT_EQ(view.header.session_id, 0xDEADull);
  const OpenSessionPayload payload = decode_open_session(view);
  EXPECT_EQ(payload.routing_key, 0x1234ull);
  const engine::SessionConfig round = session_config_of(payload);
  EXPECT_EQ(round.sample_rate_hz, config.sample_rate_hz);
  EXPECT_EQ(round.window_seconds, config.window_seconds);
  EXPECT_EQ(round.overlap, config.overlap);
  EXPECT_EQ(round.alarm_consecutive, config.alarm_consecutive);
  EXPECT_EQ(round.history_seconds, config.history_seconds);
  EXPECT_EQ(round.use_fleet_model, config.use_fleet_model);
}

TEST(WireDecode, ChunkRoundTripsChannelMajorSamples) {
  const std::vector<Real> ch0 = {1.0, 2.0, 3.0};
  const std::vector<Real> ch1 = {-1.0, -2.0, -3.0};
  std::vector<std::byte> bytes;
  encode_chunk(bytes, 11, 4, {std::span<const Real>(ch0),
                              std::span<const Real>(ch1)});
  const FrameView view = parse_frame(bytes);
  EXPECT_EQ(view.header.session_id, 11u);
  const ChunkView chunk = decode_chunk(view);
  ASSERT_EQ(chunk.channel_count, 2u);
  ASSERT_EQ(chunk.samples_per_channel, 3u);
  EXPECT_EQ(std::vector<Real>(chunk.channel(0).begin(), chunk.channel(0).end()),
            ch0);
  EXPECT_EQ(std::vector<Real>(chunk.channel(1).begin(), chunk.channel(1).end()),
            ch1);
}

TEST(WireDecode, ChunkRejectsGeometryThatDisagreesWithThePayload) {
  const std::vector<Real> samples = {1.0, 2.0, 3.0, 4.0};
  std::vector<std::byte> bytes;
  encode_chunk(bytes, 1, 1, {std::span<const Real>(samples)});

  const auto tamper_prologue = [&](std::uint32_t channels,
                                   std::uint32_t per_channel) {
    std::vector<std::byte> copy = bytes;
    ChunkPayload prologue;
    prologue.channel_count = channels;
    prologue.samples_per_channel = per_channel;
    std::memcpy(copy.data() + sizeof(FrameHeader), &prologue,
                sizeof(prologue));
    EXPECT_THROW(decode_chunk(parse_frame(copy)), InvalidArgument);
  };
  tamper_prologue(0, 4);            // no channels
  tamper_prologue(2, 4);            // claims more samples than present
  tamper_prologue(1, 3);            // claims fewer samples than present
  tamper_prologue(k_max_channels + 1, 4);
  // Hostile geometry whose product overflows 32 bits must not wrap into
  // a "consistent" size.
  tamper_prologue(0xFFFFu, 0xFFFFu);
}

TEST(WireDecode, DetectionsRoundTripAndRejectCountMismatch) {
  engine::Detection detection;
  detection.session_id = 21;
  detection.window_index = 17;
  detection.window_start_s = 12.5;
  detection.label = 1;
  detection.screened_out = false;
  detection.alarm = true;
  const WireDetection wire[] = {to_wire(detection)};

  std::vector<std::byte> bytes;
  encode_detections(bytes, 6, wire);
  const auto decoded = decode_detections(parse_frame(bytes));
  ASSERT_EQ(decoded.size(), 1u);
  const engine::Detection round = from_wire(decoded[0]);
  EXPECT_EQ(round.session_id, detection.session_id);
  EXPECT_EQ(round.window_index, detection.window_index);
  EXPECT_EQ(round.window_start_s, detection.window_start_s);
  EXPECT_EQ(round.label, detection.label);
  EXPECT_EQ(round.screened_out, detection.screened_out);
  EXPECT_EQ(round.alarm, detection.alarm);

  DetectionsPayload prologue;
  prologue.count = 2;  // one detection present
  std::memcpy(bytes.data() + sizeof(FrameHeader), &prologue, sizeof(prologue));
  EXPECT_THROW(decode_detections(parse_frame(bytes)), InvalidArgument);
}

TEST(WireEncode, OversizedChunksSplitAcrossFramesAndReassemble) {
  // A chunk larger than one frame's payload budget must not throw (the
  // in-process backends accept it); it splits along the sample axis
  // into in-order frames that reassemble to the original samples.
  constexpr std::size_t k_channels = 4;
  const std::size_t per_frame = k_max_chunk_samples_per_frame / k_channels;
  const std::size_t samples_per_channel = 2 * per_frame + 100;
  std::vector<std::vector<Real>> channels(k_channels);
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < k_channels; ++c) {
    channels[c].resize(samples_per_channel);
    for (std::size_t i = 0; i < samples_per_channel; ++i) {
      channels[c][i] = static_cast<Real>(c * 1000000 + i);
    }
    views.push_back(std::span<const Real>(channels[c]));
  }
  std::vector<std::byte> bytes;
  encode_chunk(bytes, 9, 1, views);

  FrameBuffer buffer;
  buffer.append(bytes);
  std::vector<std::vector<Real>> reassembled(k_channels);
  std::size_t frames = 0;
  FrameView view;
  while (buffer.next(view)) {
    EXPECT_EQ(static_cast<FrameType>(view.header.type), FrameType::kChunk);
    EXPECT_EQ(view.header.session_id, 9u);
    const ChunkView chunk = decode_chunk(view);
    ASSERT_EQ(chunk.channel_count, k_channels);
    for (std::uint32_t c = 0; c < k_channels; ++c) {
      reassembled[c].insert(reassembled[c].end(), chunk.channel(c).begin(),
                            chunk.channel(c).end());
    }
    ++frames;
  }
  EXPECT_EQ(frames, 3u);
  for (std::size_t c = 0; c < k_channels; ++c) {
    EXPECT_EQ(reassembled[c], channels[c]);
  }
}

TEST(WireEncode, OversizedDetectionBatchesSplitAcrossFrames) {
  // An InlineBackend flush can deliver a whole backlog in one sink
  // call; above one frame's budget the batch must split, not throw.
  const std::size_t count = k_max_detections_per_frame + 7;
  std::vector<WireDetection> batch(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch[i].window_index = i;
  }
  std::vector<std::byte> bytes;
  encode_detections(bytes, 3, batch);

  FrameBuffer buffer;
  buffer.append(bytes);
  std::size_t seen = 0;
  std::size_t frames = 0;
  FrameView view;
  while (buffer.next(view)) {
    EXPECT_EQ(static_cast<FrameType>(view.header.type),
              FrameType::kDetections);
    for (const WireDetection& detection : decode_detections(view)) {
      EXPECT_EQ(detection.window_index, seen);
      ++seen;
    }
    ++frames;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_EQ(seen, count);
}

TEST(WireDecode, StatsRoundTripThroughTheWireStruct) {
  engine::EngineStats stats;
  stats.windows_classified = 100;
  stats.forest_windows = 60;
  stats.screened_windows = 40;
  stats.unmodeled_windows = 3;
  stats.alarms = 2;
  stats.polls = 9;
  stats.batches = 5;
  std::vector<std::byte> bytes;
  encode_stats(bytes, 1, to_wire(stats));
  const engine::EngineStats round = from_wire(decode_stats(parse_frame(bytes)));
  EXPECT_EQ(round.windows_classified, stats.windows_classified);
  EXPECT_EQ(round.forest_windows, stats.forest_windows);
  EXPECT_EQ(round.screened_windows, stats.screened_windows);
  EXPECT_EQ(round.unmodeled_windows, stats.unmodeled_windows);
  EXPECT_EQ(round.alarms, stats.alarms);
  EXPECT_EQ(round.polls, stats.polls);
  EXPECT_EQ(round.batches, stats.batches);
}

TEST(WireDecode, SwapModelKeyRoundTripsAndHostileKeysAreRejected) {
  std::vector<std::byte> bytes;
  encode_swap_model(bytes, 5, 2, "patient-007");
  EXPECT_EQ(decode_swap_model(parse_frame(bytes)), "patient-007");

  // Path traversal and unprintable bytes must not reach the registry's
  // directory + "/" + key concatenation: rejected at encode and, for a
  // peer that skips our encoder, at decode.
  EXPECT_THROW(encode_swap_model(bytes, 5, 2, "../../etc/passwd"),
               InvalidArgument);
  EXPECT_THROW(encode_swap_model(bytes, 5, 2, std::string("k\0y", 3)),
               InvalidArgument);
  EXPECT_THROW(encode_swap_model(bytes, 5, 2, ""), InvalidArgument);
  EXPECT_THROW(encode_swap_model(bytes, 5, 2, std::string(300, 'k')),
               InvalidArgument);

  bytes.clear();
  encode_swap_model(bytes, 5, 2, "a_b");
  auto* key_bytes =
      reinterpret_cast<char*>(bytes.data() + sizeof(FrameHeader) +
                              sizeof(SwapModelPayload));
  key_bytes[1] = '/';
  EXPECT_THROW(decode_swap_model(parse_frame(bytes)), InvalidArgument);
  key_bytes[1] = '\0';
  EXPECT_THROW(decode_swap_model(parse_frame(bytes)), InvalidArgument);
}

TEST(WireDecode, ErrorFramesCarryCodeAndMessage) {
  std::vector<std::byte> bytes;
  encode_error(bytes, 8, WireErrorCode::kDataError, "registry has no key");
  const ErrorView error = decode_error(parse_frame(bytes));
  EXPECT_EQ(error.code, WireErrorCode::kDataError);
  EXPECT_EQ(error.message, "registry has no key");

  // Unknown code and message-length mismatch are rejected.
  ErrorPayload prologue;
  prologue.code = 99;
  prologue.message_bytes = 19;
  std::memcpy(bytes.data() + sizeof(FrameHeader), &prologue, sizeof(prologue));
  EXPECT_THROW(decode_error(parse_frame(bytes)), InvalidArgument);
  prologue.code = 2;
  prologue.message_bytes = 200;
  std::memcpy(bytes.data() + sizeof(FrameHeader), &prologue, sizeof(prologue));
  EXPECT_THROW(decode_error(parse_frame(bytes)), InvalidArgument);
}

TEST(WireFrameBuffer, ReassemblesFramesAcrossArbitrarySplits) {
  // Three frames, delivered one byte at a time: the buffer must yield
  // exactly the three frames, in order, regardless of packetization.
  std::vector<std::byte> stream;
  encode_hello(stream, 1, HelloPayload{11});
  const std::vector<Real> samples = {3.5, -1.25};
  encode_chunk(stream, 42, 2, {std::span<const Real>(samples)});
  encode_flush(stream, 3);

  FrameBuffer buffer;
  std::vector<FrameType> seen;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    buffer.append(std::span<const std::byte>(&stream[i], 1));
    FrameView view;
    while (buffer.next(view)) {
      seen.push_back(static_cast<FrameType>(view.header.type));
      if (seen.back() == FrameType::kChunk) {
        const ChunkView chunk = decode_chunk(view);
        EXPECT_EQ(std::vector<Real>(chunk.samples.begin(),
                                    chunk.samples.end()),
                  samples);
      }
    }
  }
  EXPECT_EQ(seen, (std::vector<FrameType>{FrameType::kHello, FrameType::kChunk,
                                          FrameType::kFlush}));
  EXPECT_EQ(buffer.buffered(), 0u);
}

TEST(WireFrameBuffer, PoisonedStreamThrowsAndDoesNotResynchronize) {
  std::vector<std::byte> stream;
  encode_hello(stream, 1, HelloPayload{1});
  stream[0] ^= std::byte{0xFF};  // corrupt the magic
  FrameBuffer buffer;
  buffer.append(stream);
  FrameView view;
  EXPECT_THROW(buffer.next(view), InvalidArgument);
}

TEST(WireFrameBuffer, PartialHeaderIsNotAnError) {
  std::vector<std::byte> stream;
  encode_hello(stream, 1, HelloPayload{1});
  FrameBuffer buffer;
  buffer.append(std::span<const std::byte>(stream).first(10));
  FrameView view;
  EXPECT_FALSE(buffer.next(view));
  EXPECT_EQ(buffer.buffered(), 10u);
  buffer.clear();
  EXPECT_EQ(buffer.buffered(), 0u);
}

}  // namespace
}  // namespace esl::net
