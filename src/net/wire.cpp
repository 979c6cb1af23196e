#include "net/wire.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace esl::net {

namespace {

/// Fixed payload size for a frame type, or the minimum size for the
/// variable-length types (kChunk/kDetections/kSwapModel/kError carry a
/// prologue plus an array; their decoders pin the exact length).
struct PayloadBounds {
  std::size_t min_bytes = 0;
  bool exact = true;
};

/// Throws for a type number no FrameType names.
PayloadBounds payload_bounds(std::uint16_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
      return {sizeof(HelloPayload), true};
    case FrameType::kHelloAck:
      return {sizeof(HelloAckPayload), true};
    case FrameType::kOpenSession:
      return {sizeof(OpenSessionPayload), true};
    case FrameType::kOpenSessionAck:
      return {sizeof(OpenSessionAckPayload), true};
    case FrameType::kChunk:
      return {sizeof(ChunkPayload), false};
    case FrameType::kDetections:
      return {sizeof(DetectionsPayload), false};
    case FrameType::kStatsRequest:
      return {0, true};
    case FrameType::kStats:
      return {sizeof(StatsPayload), true};
    case FrameType::kSwapModel:
      return {sizeof(SwapModelPayload), false};
    case FrameType::kSwapModelAck:
      return {0, true};
    case FrameType::kFlush:
      return {0, true};
    case FrameType::kFlushAck:
      return {0, true};
    case FrameType::kClose:
      return {0, true};
    case FrameType::kCloseAck:
      return {0, true};
    case FrameType::kError:
      return {sizeof(ErrorPayload), false};
    case FrameType::kCloseSession:
      return {0, true};
    case FrameType::kCloseSessionAck:
      return {0, true};
  }
  throw InvalidArgument("wire frame type is not recognized");
}

/// memcpy a trivially-copyable payload struct out of a validated view.
template <typename T>
T copy_payload(const FrameView& view, FrameType expected_type) {
  static_assert(std::is_trivially_copyable_v<T>);
  expects(view.header.type == static_cast<std::uint16_t>(expected_type),
          "wire frame type does not match the requested decoder");
  expects(view.payload.size() == sizeof(T),
          "wire payload size does not match its frame type");
  T payload;
  std::memcpy(&payload, view.payload.data(), sizeof(T));
  return payload;
}

/// Checks a variable-length view's prologue and returns it.
template <typename T>
T copy_prologue(const FrameView& view, FrameType expected_type) {
  static_assert(std::is_trivially_copyable_v<T>);
  expects(view.header.type == static_cast<std::uint16_t>(expected_type),
          "wire frame type does not match the requested decoder");
  expects(view.payload.size() >= sizeof(T),
          "wire payload is shorter than its type prologue");
  T prologue;
  std::memcpy(&prologue, view.payload.data(), sizeof(T));
  return prologue;
}

constexpr std::size_t padded(std::size_t bytes) {
  return (bytes + k_frame_alignment - 1) & ~(k_frame_alignment - 1);
}

/// Appends a header and returns the offset where the payload starts;
/// the caller writes exactly `payload_bytes` (+ zero padding, already
/// accounted for in the resize) after it.
std::size_t append_header(std::vector<std::byte>& out, FrameType type,
                          std::uint64_t session_id, std::uint64_t sequence,
                          std::size_t payload_bytes) {
  ensures(payload_bytes <= k_max_payload_bytes,
          "wire encoder produced an oversized payload");
  FrameHeader header;
  header.type = static_cast<std::uint16_t>(type);
  header.payload_bytes = static_cast<std::uint32_t>(padded(payload_bytes));
  header.session_id = session_id;
  header.sequence = sequence;
  const std::size_t base = out.size();
  out.resize(base + frame_size(header));  // value-initialized: padding is zero
  std::memcpy(out.data() + base, &header, sizeof(header));
  return base + sizeof(header);
}

template <typename T>
void append_struct_frame(std::vector<std::byte>& out, FrameType type,
                         std::uint64_t session_id, std::uint64_t sequence,
                         const T& payload) {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(sizeof(T) % k_frame_alignment == 0,
                "wire payload structs must be padded to the frame alignment");
  const std::size_t at = append_header(out, type, session_id, sequence,
                                       sizeof(T));
  std::memcpy(out.data() + at, &payload, sizeof(T));
}

void append_empty_frame(std::vector<std::byte>& out, FrameType type,
                        std::uint64_t session_id, std::uint64_t sequence) {
  append_header(out, type, session_id, sequence, 0);
}

bool key_char_ok(char c) {
  return c > 0x20 && c < 0x7F && c != '/';
}

}  // namespace

void validate(const FrameHeader& header) {
  expects(header.magic == k_wire_magic,
          "wire frame magic does not match ESLWIRE1");
  expects(header.version == k_wire_version,
          "wire frame version is not supported");
  expects(header.endianness == k_wire_endianness,
          "wire frame endianness does not match this host");
  expects(header.real_bytes == sizeof(Real),
          "wire frame sample width does not match this build");
  const PayloadBounds bounds = payload_bounds(header.type);
  expects(header.payload_bytes <= k_max_payload_bytes,
          "wire frame payload length exceeds the protocol maximum");
  expects(header.payload_bytes % k_frame_alignment == 0,
          "wire frame payload length is not a multiple of the frame alignment");
  if (bounds.exact) {
    expects(header.payload_bytes == padded(bounds.min_bytes),
            "wire frame payload length does not match its frame type");
  } else {
    expects(header.payload_bytes >= padded(bounds.min_bytes),
            "wire frame payload length is shorter than its type prologue");
  }
}

FrameView parse_frame(std::span<const std::byte> bytes) {
  expects(reinterpret_cast<std::uintptr_t>(bytes.data()) %
                  k_frame_alignment ==
              0,
          "wire frame buffer is not aligned for payload access");
  expects(bytes.size() >= sizeof(FrameHeader),
          "wire frame is shorter than its header");
  FrameView view;
  std::memcpy(&view.header, bytes.data(), sizeof(FrameHeader));
  validate(view.header);
  expects(bytes.size() >= frame_size(view.header),
          "wire frame is shorter than its declared payload");
  view.payload = bytes.subspan(sizeof(FrameHeader), view.header.payload_bytes);
  return view;
}

HelloPayload decode_hello(const FrameView& view) {
  return copy_payload<HelloPayload>(view, FrameType::kHello);
}

HelloAckPayload decode_hello_ack(const FrameView& view) {
  return copy_payload<HelloAckPayload>(view, FrameType::kHelloAck);
}

OpenSessionPayload decode_open_session(const FrameView& view) {
  return copy_payload<OpenSessionPayload>(view, FrameType::kOpenSession);
}

OpenSessionAckPayload decode_open_session_ack(const FrameView& view) {
  return copy_payload<OpenSessionAckPayload>(view, FrameType::kOpenSessionAck);
}

StatsPayload decode_stats(const FrameView& view) {
  return copy_payload<StatsPayload>(view, FrameType::kStats);
}

ChunkView decode_chunk(const FrameView& view) {
  const auto prologue = copy_prologue<ChunkPayload>(view, FrameType::kChunk);
  expects(prologue.channel_count >= 1,
          "wire chunk must carry at least one channel");
  expects(prologue.channel_count <= k_max_channels,
          "wire chunk channel count exceeds the protocol maximum");
  expects(prologue.samples_per_channel >= 1,
          "wire chunk must carry at least one sample per channel");
  const std::uint64_t sample_count =
      static_cast<std::uint64_t>(prologue.channel_count) *
      prologue.samples_per_channel;
  expects(sizeof(ChunkPayload) + sample_count * sizeof(Real) ==
              view.payload.size(),
          "wire chunk sample array does not match its declared geometry");
  ChunkView chunk;
  chunk.channel_count = prologue.channel_count;
  chunk.samples_per_channel = prologue.samples_per_channel;
  const std::byte* base = view.payload.data() + sizeof(ChunkPayload);
  expects(reinterpret_cast<std::uintptr_t>(base) % alignof(Real) == 0,
          "wire chunk samples are not aligned for direct access");
  chunk.samples = std::span<const Real>(
      reinterpret_cast<const Real*>(base),
      static_cast<std::size_t>(sample_count));
  return chunk;
}

std::span<const WireDetection> decode_detections(const FrameView& view) {
  const auto prologue =
      copy_prologue<DetectionsPayload>(view, FrameType::kDetections);
  expects(prologue.reserved == 0,
          "wire detections reserved field must be zero");
  expects(sizeof(DetectionsPayload) +
                  static_cast<std::uint64_t>(prologue.count) *
                      sizeof(WireDetection) ==
              view.payload.size(),
          "wire detections array does not match its declared count");
  const std::byte* base = view.payload.data() + sizeof(DetectionsPayload);
  expects(reinterpret_cast<std::uintptr_t>(base) % alignof(WireDetection) == 0,
          "wire detections are not aligned for direct access");
  return std::span<const WireDetection>(
      reinterpret_cast<const WireDetection*>(base), prologue.count);
}

std::string_view decode_swap_model(const FrameView& view) {
  const auto prologue =
      copy_prologue<SwapModelPayload>(view, FrameType::kSwapModel);
  expects(prologue.reserved == 0,
          "wire swap-model reserved field must be zero");
  expects(prologue.key_bytes >= 1, "wire swap-model key must not be empty");
  expects(prologue.key_bytes <= k_max_key_bytes,
          "wire swap-model key exceeds the protocol maximum");
  expects(sizeof(SwapModelPayload) + padded(prologue.key_bytes) ==
              view.payload.size(),
          "wire swap-model key does not match its declared length");
  const char* chars =
      reinterpret_cast<const char*>(view.payload.data()) +
      sizeof(SwapModelPayload);
  std::string_view key(chars, prologue.key_bytes);
  for (char c : key) {
    expects(key_char_ok(c),
            "wire swap-model key must be printable ASCII without '/'");
  }
  return key;
}

ErrorView decode_error(const FrameView& view) {
  const auto prologue = copy_prologue<ErrorPayload>(view, FrameType::kError);
  expects(prologue.code >=
                  static_cast<std::uint32_t>(WireErrorCode::kInvalidArgument) &&
              prologue.code <=
                  static_cast<std::uint32_t>(WireErrorCode::kInternal),
          "wire error code is not recognized");
  expects(prologue.message_bytes <= k_max_error_message_bytes,
          "wire error message exceeds the protocol maximum");
  expects(sizeof(ErrorPayload) + padded(prologue.message_bytes) ==
              view.payload.size(),
          "wire error message does not match its declared length");
  ErrorView error;
  error.code = static_cast<WireErrorCode>(prologue.code);
  error.message = std::string_view(
      reinterpret_cast<const char*>(view.payload.data()) + sizeof(ErrorPayload),
      prologue.message_bytes);
  return error;
}

void encode_hello(std::vector<std::byte>& out, std::uint64_t sequence,
                  const HelloPayload& payload) {
  append_struct_frame(out, FrameType::kHello, 0, sequence, payload);
}

void encode_hello_ack(std::vector<std::byte>& out, std::uint64_t sequence,
                      const HelloAckPayload& payload) {
  append_struct_frame(out, FrameType::kHelloAck, 0, sequence, payload);
}

void encode_open_session(std::vector<std::byte>& out, std::uint64_t session_id,
                         std::uint64_t sequence,
                         const OpenSessionPayload& payload) {
  append_struct_frame(out, FrameType::kOpenSession, session_id, sequence,
                      payload);
}

void encode_open_session_ack(std::vector<std::byte>& out,
                             std::uint64_t session_id, std::uint64_t sequence,
                             const OpenSessionAckPayload& payload) {
  append_struct_frame(out, FrameType::kOpenSessionAck, session_id, sequence,
                      payload);
}

void encode_chunk(std::vector<std::byte>& out, std::uint64_t session_id,
                  std::uint64_t sequence,
                  const std::vector<std::span<const Real>>& chunk) {
  expects(!chunk.empty(), "wire chunk must carry at least one channel");
  expects(chunk.size() <= k_max_channels,
          "wire chunk channel count exceeds the protocol maximum");
  const std::size_t samples_per_channel = chunk.front().size();
  expects(samples_per_channel >= 1,
          "wire chunk must carry at least one sample per channel");
  for (const auto& channel : chunk) {
    expects(channel.size() == samples_per_channel,
            "wire chunk channels must share one sample count");
  }
  // Chunks above one frame's payload budget are split along the sample
  // axis: ingest only appends samples to the session's ring, so slice
  // boundaries are semantically invisible and chunk sizes the
  // in-process backends accept never hit a wire-only limit.
  const std::size_t max_per_channel =
      k_max_chunk_samples_per_frame / chunk.size();
  for (std::size_t taken = 0; taken < samples_per_channel;) {
    const std::size_t take =
        std::min(samples_per_channel - taken, max_per_channel);
    const std::size_t payload_bytes =
        sizeof(ChunkPayload) + chunk.size() * take * sizeof(Real);
    std::size_t at = append_header(out, FrameType::kChunk, session_id,
                                   sequence, payload_bytes);
    ChunkPayload prologue;
    prologue.channel_count = static_cast<std::uint32_t>(chunk.size());
    prologue.samples_per_channel = static_cast<std::uint32_t>(take);
    std::memcpy(out.data() + at, &prologue, sizeof(prologue));
    at += sizeof(prologue);
    for (const auto& channel : chunk) {
      std::memcpy(out.data() + at, channel.data() + taken,
                  take * sizeof(Real));
      at += take * sizeof(Real);
    }
    taken += take;
  }
}

void encode_detections(std::vector<std::byte>& out, std::uint64_t sequence,
                       std::span<const WireDetection> detections) {
  // Batches above one frame's payload budget (an InlineBackend flush
  // can deliver a whole backlog at once) are split across frames;
  // receivers accumulate per frame, so the split is invisible.
  do {
    const std::size_t take =
        std::min(detections.size(), k_max_detections_per_frame);
    const std::size_t payload_bytes =
        sizeof(DetectionsPayload) + take * sizeof(WireDetection);
    std::size_t at = append_header(out, FrameType::kDetections, 0, sequence,
                                   payload_bytes);
    DetectionsPayload prologue;
    prologue.count = static_cast<std::uint32_t>(take);
    std::memcpy(out.data() + at, &prologue, sizeof(prologue));
    at += sizeof(prologue);
    if (take != 0) {
      std::memcpy(out.data() + at, detections.data(),
                  take * sizeof(WireDetection));
    }
    detections = detections.subspan(take);
  } while (!detections.empty());
}

void encode_stats_request(std::vector<std::byte>& out, std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kStatsRequest, 0, sequence);
}

void encode_stats(std::vector<std::byte>& out, std::uint64_t sequence,
                  const StatsPayload& payload) {
  append_struct_frame(out, FrameType::kStats, 0, sequence, payload);
}

void encode_swap_model(std::vector<std::byte>& out, std::uint64_t session_id,
                       std::uint64_t sequence, std::string_view key) {
  expects(!key.empty(), "wire swap-model key must not be empty");
  expects(key.size() <= k_max_key_bytes,
          "wire swap-model key exceeds the protocol maximum");
  for (char c : key) {
    expects(key_char_ok(c),
            "wire swap-model key must be printable ASCII without '/'");
  }
  const std::size_t payload_bytes = sizeof(SwapModelPayload) + key.size();
  std::size_t at = append_header(out, FrameType::kSwapModel, session_id,
                                 sequence, payload_bytes);
  SwapModelPayload prologue;
  prologue.key_bytes = static_cast<std::uint32_t>(key.size());
  std::memcpy(out.data() + at, &prologue, sizeof(prologue));
  at += sizeof(prologue);
  std::memcpy(out.data() + at, key.data(), key.size());
}

void encode_swap_model_ack(std::vector<std::byte>& out,
                           std::uint64_t session_id, std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kSwapModelAck, session_id, sequence);
}

void encode_flush(std::vector<std::byte>& out, std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kFlush, 0, sequence);
}

void encode_flush_ack(std::vector<std::byte>& out, std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kFlushAck, 0, sequence);
}

void encode_close_session(std::vector<std::byte>& out,
                          std::uint64_t session_id, std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kCloseSession, session_id, sequence);
}

void encode_close_session_ack(std::vector<std::byte>& out,
                              std::uint64_t session_id,
                              std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kCloseSessionAck, session_id, sequence);
}

void encode_close(std::vector<std::byte>& out, std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kClose, 0, sequence);
}

void encode_close_ack(std::vector<std::byte>& out, std::uint64_t sequence) {
  append_empty_frame(out, FrameType::kCloseAck, 0, sequence);
}

void encode_error(std::vector<std::byte>& out, std::uint64_t sequence,
                  WireErrorCode code, std::string_view message) {
  if (message.size() > k_max_error_message_bytes) {
    message = message.substr(0, k_max_error_message_bytes);
  }
  const std::size_t payload_bytes = sizeof(ErrorPayload) + message.size();
  std::size_t at = append_header(out, FrameType::kError, 0, sequence,
                                 payload_bytes);
  ErrorPayload prologue;
  prologue.code = static_cast<std::uint32_t>(code);
  prologue.message_bytes = static_cast<std::uint32_t>(message.size());
  std::memcpy(out.data() + at, &prologue, sizeof(prologue));
  at += sizeof(prologue);
  if (!message.empty()) {
    std::memcpy(out.data() + at, message.data(), message.size());
  }
}

WireDetection to_wire(const engine::Detection& detection) {
  WireDetection wire;
  wire.session_id = detection.session_id;
  wire.window_index = detection.window_index;
  wire.window_start_s = detection.window_start_s;
  wire.label = detection.label;
  wire.screened_out = detection.screened_out ? 1 : 0;
  wire.alarm = detection.alarm ? 1 : 0;
  return wire;
}

engine::Detection from_wire(const WireDetection& detection) {
  engine::Detection out;
  out.session_id = detection.session_id;
  out.window_index = static_cast<std::size_t>(detection.window_index);
  out.window_start_s = detection.window_start_s;
  out.label = detection.label;
  out.screened_out = detection.screened_out != 0;
  out.alarm = detection.alarm != 0;
  return out;
}

StatsPayload to_wire(const engine::EngineStats& stats) {
  StatsPayload wire;
  wire.windows_classified = stats.windows_classified;
  wire.forest_windows = stats.forest_windows;
  wire.screened_windows = stats.screened_windows;
  wire.unmodeled_windows = stats.unmodeled_windows;
  wire.alarms = stats.alarms;
  wire.polls = stats.polls;
  wire.batches = stats.batches;
  return wire;
}

engine::EngineStats from_wire(const StatsPayload& stats) {
  engine::EngineStats out;
  out.windows_classified = static_cast<std::size_t>(stats.windows_classified);
  out.forest_windows = static_cast<std::size_t>(stats.forest_windows);
  out.screened_windows = static_cast<std::size_t>(stats.screened_windows);
  out.unmodeled_windows = static_cast<std::size_t>(stats.unmodeled_windows);
  out.alarms = static_cast<std::size_t>(stats.alarms);
  out.polls = static_cast<std::size_t>(stats.polls);
  out.batches = static_cast<std::size_t>(stats.batches);
  return out;
}

OpenSessionPayload make_open_session(std::uint64_t routing_key,
                                     const engine::SessionConfig& config) {
  OpenSessionPayload payload;
  payload.routing_key = routing_key;
  payload.sample_rate_hz = config.sample_rate_hz;
  payload.window_seconds = config.window_seconds;
  payload.overlap = config.overlap;
  payload.history_seconds = config.history_seconds;
  payload.alarm_consecutive =
      static_cast<std::uint32_t>(config.alarm_consecutive);
  payload.use_fleet_model = config.use_fleet_model ? 1 : 0;
  return payload;
}

engine::SessionConfig session_config_of(const OpenSessionPayload& payload) {
  engine::SessionConfig config;
  config.sample_rate_hz = payload.sample_rate_hz;
  config.window_seconds = payload.window_seconds;
  config.overlap = payload.overlap;
  config.history_seconds = payload.history_seconds;
  config.alarm_consecutive =
      static_cast<std::size_t>(payload.alarm_consecutive);
  config.use_fleet_model = payload.use_fleet_model != 0;
  return config;
}

void FrameBuffer::append(std::span<const std::byte> bytes) {
  if (offset_ > 0) {
    // Compact before growing so frames stay 8-aligned relative to the
    // buffer base (offset_ is a sum of frame sizes, all multiples of 8,
    // but compaction also bounds memory on long-lived connections).
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

bool FrameBuffer::next(FrameView& view) {
  const std::size_t available = buffer_.size() - offset_;
  if (available < sizeof(FrameHeader)) {
    return false;
  }
  FrameHeader header;
  std::memcpy(&header, buffer_.data() + offset_, sizeof(FrameHeader));
  validate(header);  // throws on a poisoned stream; no resynchronization
  if (available < frame_size(header)) {
    return false;
  }
  view = parse_frame(std::span<const std::byte>(buffer_.data() + offset_,
                                                frame_size(header)));
  offset_ += frame_size(header);
  return true;
}

void FrameBuffer::clear() {
  buffer_.clear();
  offset_ = 0;
}

}  // namespace esl::net
