// Versioned binary wire protocol for cross-process serving.
//
// The paper's e-Glass devices stream EEG windows to a detection
// service; at fleet scale the service is a separate process (a
// ShardServer), and this header defines the only bytes that cross that
// boundary. The format follows the artifact-header discipline
// (ml/artifact.hpp): a fixed, trivially-copyable FrameHeader — magic,
// version, endianness tag, frame type, payload length, session id,
// sequence — followed by one typed payload, every struct memcpy'd in
// and out, never pointer-cast across the trust boundary.
//
//   FrameHeader (40 B)   magic "ESLWIRE1", version, endianness,
//                        type, sizeof(Real), payload_bytes,
//                        session_id, sequence
//   payload              one typed struct (below), possibly followed
//                        by a variable array (samples, detections,
//                        key/message chars), zero-padded to 8 bytes
//
// Every payload size is a multiple of 8 and the header is 40 bytes, so
// in a byte stream of back-to-back frames each payload keeps Real/u64
// alignment relative to the stream start — FrameBuffer preserves that
// invariant and decoded sample/detection arrays are served as spans
// into the receive buffer with zero copies.
//
// Conversation (client -> server unless noted):
//   kHello / kHelloAck          version+width negotiation via the
//                               header itself; ack reports shard count
//                               and whether a model registry is mounted
//   kOpenSession / ...Ack       routing key + stream geometry; the
//                               server routes by the same splitmix64
//                               hash the in-process service uses
//   kChunk                      one ingest chunk, channel-major raw
//                               Real samples
//   kDetections (server)        batch of classified windows, streamed
//                               back as they are produced
//   kStatsRequest / kStats      aggregate EngineStats snapshot
//   kSwapModel / ...Ack         deploy a model from the server's
//                               ModelRegistry by patient key
//   kFlush / kFlushAck          barrier: every chunk framed before the
//                               flush has been classified and its
//                               detections sent before the ack; the
//                               barrier is scoped to this connection's
//                               sessions, other connections keep flowing
//   kCloseSession / ...Ack      removes one session server-side (frees
//                               its engine slot; later chunks for the
//                               id are refused)
//   kClose / kCloseAck          orderly goodbye
//   kError (server)             typed failure for the request sequence
//
// Trust model: wire input is the least-trusted boundary in the repo —
// anything can connect and send anything. The byte->frame seam is
// therefore exposed exactly like bind_artifact(): parse_frame() over a
// span, validate(FrameHeader) for the fixed prologue, per-type decoders
// for payload structure, all fuzzable with no socket in sight
// (fuzz/fuzz_frame.cpp). Every reject throws InvalidArgument with a
// literal message before any payload array is touched.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "engine/engine.hpp"
#include "engine/patient_session.hpp"

namespace esl::net {

/// First 8 bytes of every frame: "ESLWIRE1" (little-endian u64).
inline constexpr std::uint64_t k_wire_magic = 0x31455249574C5345ull;
/// Bumped on any frame-layout change; peers reject other versions.
inline constexpr std::uint32_t k_wire_version = 1;
/// Byte-order tag as written by the sending host; a foreign-endian
/// peer sees it permuted and rejects the stream up front (samples and
/// detections cross the wire as raw host-order arrays).
inline constexpr std::uint32_t k_wire_endianness = 0x01020304u;
/// Hard ceiling on one frame's payload: bounds the receive buffer a
/// hostile peer can make us grow before validation rejects the frame.
inline constexpr std::size_t k_max_payload_bytes = 1u << 20;
/// Payload sizes are zero-padded to this, so back-to-back frames keep
/// Real/u64 alignment inside a receive buffer.
inline constexpr std::size_t k_frame_alignment = 8;
/// Upper bounds on variable-length payload geometry (checked by the
/// decoders before any array is addressed).
inline constexpr std::uint32_t k_max_channels = 64;
inline constexpr std::uint32_t k_max_key_bytes = 256;
inline constexpr std::uint32_t k_max_error_message_bytes = 512;

enum class FrameType : std::uint16_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenSession = 3,
  kOpenSessionAck = 4,
  kChunk = 5,
  // 6 and 7 carried a server-side label press; they are retired and
  // validate() rejects them.
  kDetections = 8,
  kStatsRequest = 9,
  kStats = 10,
  kSwapModel = 11,
  kSwapModelAck = 12,
  kFlush = 13,
  kFlushAck = 14,
  kClose = 15,
  kCloseAck = 16,
  kError = 17,
  kCloseSession = 18,
  kCloseSessionAck = 19,
};

/// Fixed frame prologue. Plain trivially-copyable scalars only — the
/// header is memcpy'd out of the receive buffer, never pointer-cast.
struct FrameHeader {
  std::uint64_t magic = k_wire_magic;
  std::uint32_t version = k_wire_version;
  std::uint32_t endianness = k_wire_endianness;
  std::uint16_t type = 0;
  /// Samples and detections carry Real arrays; a peer built with a
  /// different Real width would mis-read every array, so the width is
  /// part of the handshake on every frame.
  std::uint16_t real_bytes = sizeof(Real);
  std::uint32_t payload_bytes = 0;
  /// Client-side SessionHandle value for session-scoped frames
  /// (kChunk, kSwapModel, kOpenSession); 0 on connection-scoped
  /// frames. The server never interprets its bits — it is an opaque key
  /// the detections are addressed back to.
  std::uint64_t session_id = 0;
  /// Sender-assigned, monotone per connection; acks and kError echo the
  /// request's sequence so the client can match replies.
  std::uint64_t sequence = 0;
};
static_assert(sizeof(FrameHeader) == 40, "wire frame header layout drifted");

// ------------------------------------------------------ typed payloads
// Every struct is trivially copyable, zero-padded to 8 bytes, and
// static_asserted so a layout drift is a build break, not a protocol
// break.

struct HelloPayload {
  std::uint64_t nonce = 0;
};
static_assert(sizeof(HelloPayload) == 8);

/// HelloAck flags bit 0: a ModelRegistry is mounted (kSwapModel works).
inline constexpr std::uint32_t k_hello_flag_registry = 1u;

struct HelloAckPayload {
  std::uint64_t nonce = 0;  // echoed from the hello
  std::uint32_t shard_count = 0;
  std::uint32_t flags = 0;
};
static_assert(sizeof(HelloAckPayload) == 16);

struct OpenSessionPayload {
  /// The client's routing key; the server routes with the same
  /// splitmix64 hash, so a session lands on the same shard index it
  /// would in-process (given equal shard counts).
  std::uint64_t routing_key = 0;
  double sample_rate_hz = 0.0;
  double window_seconds = 0.0;
  double overlap = 0.0;
  double history_seconds = 0.0;
  std::uint32_t alarm_consecutive = 0;
  std::uint8_t use_fleet_model = 1;
  std::uint8_t reserved[3] = {};
};
static_assert(sizeof(OpenSessionPayload) == 48);

struct OpenSessionAckPayload {
  /// The server-side handle (diagnostic; the wire always addresses
  /// sessions by the client's id).
  std::uint64_t server_session = 0;
};
static_assert(sizeof(OpenSessionAckPayload) == 8);

/// kChunk payload: this prologue, then channel_count *
/// samples_per_channel Reals, channel-major (channel 0's samples, then
/// channel 1's, ...).
struct ChunkPayload {
  std::uint32_t channel_count = 0;
  std::uint32_t samples_per_channel = 0;
};
static_assert(sizeof(ChunkPayload) == 8);

/// Most samples (summed over channels) one kChunk frame can carry under
/// k_max_payload_bytes; encode_chunk splits larger chunks along the
/// sample axis into back-to-back frames, so in-process chunk sizes
/// never hit a wire-only limit.
inline constexpr std::size_t k_max_chunk_samples_per_frame =
    (k_max_payload_bytes - sizeof(ChunkPayload)) / sizeof(Real);

/// One classified window on the wire (engine::Detection with pinned
/// widths; session_id lives in the surrounding struct so a batch frame
/// can mix sessions).
struct WireDetection {
  std::uint64_t session_id = 0;
  std::uint64_t window_index = 0;
  double window_start_s = 0.0;
  std::int32_t label = 0;
  std::uint8_t screened_out = 0;
  std::uint8_t alarm = 0;
  std::uint8_t reserved[2] = {};
};
static_assert(sizeof(WireDetection) == 32);

/// kDetections payload: this prologue, then `count` WireDetections.
struct DetectionsPayload {
  std::uint32_t count = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(DetectionsPayload) == 8);

/// Most detections one kDetections frame can carry under
/// k_max_payload_bytes; encode_detections splits larger batches across
/// frames (receivers accumulate per frame, so the split is invisible).
inline constexpr std::size_t k_max_detections_per_frame =
    (k_max_payload_bytes - sizeof(DetectionsPayload)) / sizeof(WireDetection);

/// engine::EngineStats with pinned widths.
struct StatsPayload {
  std::uint64_t windows_classified = 0;
  std::uint64_t forest_windows = 0;
  std::uint64_t screened_windows = 0;
  std::uint64_t unmodeled_windows = 0;
  std::uint64_t alarms = 0;
  std::uint64_t polls = 0;
  std::uint64_t batches = 0;
};
static_assert(sizeof(StatsPayload) == 56);

/// kSwapModel payload: this prologue, then key_bytes chars of registry
/// key, zero-padded to 8. Keys are printable ASCII with no '/' so a
/// hostile key cannot traverse out of the registry directory.
struct SwapModelPayload {
  std::uint32_t key_bytes = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SwapModelPayload) == 8);

enum class WireErrorCode : std::uint32_t {
  kInvalidArgument = 1,
  kDataError = 2,
  kLogicError = 3,
  kInternal = 4,
};

/// kError payload: this prologue, then message_bytes chars, zero-padded
/// to 8.
struct ErrorPayload {
  std::uint32_t code = 0;
  std::uint32_t message_bytes = 0;
};
static_assert(sizeof(ErrorPayload) == 8);

// ------------------------------------------------------------ validate

/// Header sanity in the validate(ArtifactHeader) style: magic, version,
/// endianness, Real width, known frame type, payload length bounded,
/// 8-aligned, and consistent with the type's fixed or minimum payload
/// size. Throws InvalidArgument (literal messages only) before any
/// payload byte is touched.
void validate(const FrameHeader& header);

/// Total frame size (header + padded payload) implied by the header.
constexpr std::size_t frame_size(const FrameHeader& header) {
  return sizeof(FrameHeader) + header.payload_bytes;
}

// --------------------------------------------------------------- parse

/// A validated view over one frame inside a byte buffer: the header
/// (copied out) plus a span aimed at the payload. Valid only while the
/// underlying bytes live.
struct FrameView {
  FrameHeader header;
  std::span<const std::byte> payload;
};

/// The byte->frame seam, shaped exactly like bind_artifact(): parses
/// the frame at the front of `bytes` — header copy, validate(), payload
/// span binding, length check against the buffer. `bytes.data()` must
/// be 8-aligned (receive buffers and fuzz staging both are). Throws
/// InvalidArgument on malformed input; a buffer shorter than the
/// declared frame is malformed here (streaming reassembly is
/// FrameBuffer's job, which only calls this with complete frames).
FrameView parse_frame(std::span<const std::byte> bytes);

// Typed payload decoders: structural validation + memcpy out (or span
// binding for the variable arrays). Each throws InvalidArgument unless
// the view's type and payload match exactly.
HelloPayload decode_hello(const FrameView& view);
HelloAckPayload decode_hello_ack(const FrameView& view);
OpenSessionPayload decode_open_session(const FrameView& view);
OpenSessionAckPayload decode_open_session_ack(const FrameView& view);
StatsPayload decode_stats(const FrameView& view);

/// Borrowed chunk view: `samples` aims into the frame's payload
/// (channel-major, channel_count * samples_per_channel Reals).
struct ChunkView {
  std::uint32_t channel_count = 0;
  std::uint32_t samples_per_channel = 0;
  std::span<const Real> samples;
  std::span<const Real> channel(std::uint32_t c) const {
    return samples.subspan(static_cast<std::size_t>(c) * samples_per_channel,
                           samples_per_channel);
  }
};
ChunkView decode_chunk(const FrameView& view);

/// Borrowed detections view (span into the payload).
std::span<const WireDetection> decode_detections(const FrameView& view);

/// The registry key of a kSwapModel frame (borrowed). Enforces the key
/// character set (printable ASCII, no '/').
std::string_view decode_swap_model(const FrameView& view);

struct ErrorView {
  WireErrorCode code = WireErrorCode::kInternal;
  std::string_view message;  // borrowed
};
ErrorView decode_error(const FrameView& view);

// -------------------------------------------------------------- encode
// Encoders append one complete frame (header + payload + padding) onto
// `out`; senders batch several frames per send. The sequence is
// caller-assigned; acks echo the request's. The two variable-array
// encoders (encode_chunk, encode_detections) split input larger than
// one frame's payload budget across several back-to-back frames, each
// carrying the same session id and sequence — ingest appends and
// detection batches accumulate receiver-side, so the split carries no
// semantics.

void encode_hello(std::vector<std::byte>& out, std::uint64_t sequence,
                  const HelloPayload& payload);
void encode_hello_ack(std::vector<std::byte>& out, std::uint64_t sequence,
                      const HelloAckPayload& payload);
void encode_open_session(std::vector<std::byte>& out, std::uint64_t session_id,
                         std::uint64_t sequence,
                         const OpenSessionPayload& payload);
void encode_open_session_ack(std::vector<std::byte>& out,
                             std::uint64_t session_id, std::uint64_t sequence,
                             const OpenSessionAckPayload& payload);
void encode_chunk(std::vector<std::byte>& out, std::uint64_t session_id,
                  std::uint64_t sequence,
                  const std::vector<std::span<const Real>>& chunk);
void encode_detections(std::vector<std::byte>& out, std::uint64_t sequence,
                       std::span<const WireDetection> detections);
void encode_stats_request(std::vector<std::byte>& out, std::uint64_t sequence);
void encode_stats(std::vector<std::byte>& out, std::uint64_t sequence,
                  const StatsPayload& payload);
void encode_swap_model(std::vector<std::byte>& out, std::uint64_t session_id,
                       std::uint64_t sequence, std::string_view key);
void encode_swap_model_ack(std::vector<std::byte>& out,
                           std::uint64_t session_id, std::uint64_t sequence);
void encode_flush(std::vector<std::byte>& out, std::uint64_t sequence);
void encode_flush_ack(std::vector<std::byte>& out, std::uint64_t sequence);
void encode_close_session(std::vector<std::byte>& out,
                          std::uint64_t session_id, std::uint64_t sequence);
void encode_close_session_ack(std::vector<std::byte>& out,
                              std::uint64_t session_id,
                              std::uint64_t sequence);
void encode_close(std::vector<std::byte>& out, std::uint64_t sequence);
void encode_close_ack(std::vector<std::byte>& out, std::uint64_t sequence);
void encode_error(std::vector<std::byte>& out, std::uint64_t sequence,
                  WireErrorCode code, std::string_view message);

// --------------------------------------------------------- conversions

WireDetection to_wire(const engine::Detection& detection);
engine::Detection from_wire(const WireDetection& detection);
StatsPayload to_wire(const engine::EngineStats& stats);
engine::EngineStats from_wire(const StatsPayload& stats);
OpenSessionPayload make_open_session(std::uint64_t routing_key,
                                     const engine::SessionConfig& config);
engine::SessionConfig session_config_of(const OpenSessionPayload& payload);

// ------------------------------------------------------------- batching

/// Reusable WireDetection accumulator for the server's outbox path:
/// add() converts and collects, encode_into() emits one (split if
/// oversized) kDetections frame and resets. Both the detection vector
/// and the caller's byte buffer retain their capacity, so a warm
/// batcher encodes without heap allocation (pinned by
/// tests/net/test_net_alloc.cpp).
class DetectionBatcher {
 public:
  void clear() { batch_.clear(); }
  bool empty() const { return batch_.empty(); }
  std::size_t size() const { return batch_.size(); }

  /// Converts and queues one detection, addressed back to the client as
  /// `wire_session_id` (the client-side handle the connection opened
  /// the session under).
  void add(const engine::Detection& detection, std::uint64_t wire_session_id) {
    WireDetection wire = to_wire(detection);
    wire.session_id = wire_session_id;
    batch_.push_back(wire);
  }

  /// Appends the pending batch as kDetections frame(s) onto `out` and
  /// clears the batch. No-op when empty.
  void encode_into(std::vector<std::byte>& out, std::uint64_t sequence) {
    if (batch_.empty()) {
      return;
    }
    encode_detections(out, sequence, batch_);
    batch_.clear();
  }

 private:
  std::vector<WireDetection> batch_;
};

// --------------------------------------------------- stream reassembly

/// Accumulates received bytes and yields complete frames in order —
/// the reassembly seam between recv() and parse_frame(). Frames start
/// 8-aligned relative to the buffer base (header is 40 bytes, payloads
/// are padded to 8), so decoded Real/u64 arrays are correctly aligned
/// spans into the buffer.
///
/// Usage: append() what recv produced, then drain `while (next(view))`.
/// A view is valid until the next append() or clear(). next() throws
/// InvalidArgument as soon as the *header* at the stream front is
/// malformed — a wire error is unrecoverable for the connection, there
/// is no resynchronization.
class FrameBuffer {
 public:
  void append(std::span<const std::byte> bytes);
  /// Parses the next complete frame into `view` and consumes it.
  /// Returns false when the buffer holds no complete frame (empty or a
  /// prefix of one).
  bool next(FrameView& view);
  std::size_t buffered() const { return buffer_.size() - offset_; }
  void clear();

 private:
  std::vector<std::byte> buffer_;
  std::size_t offset_ = 0;  // consumed prefix; compacted on append
};

}  // namespace esl::net
