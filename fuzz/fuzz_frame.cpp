// Fuzz harness for the wire-protocol trust boundary (net/wire.hpp).
//
// Wire bytes are the least-trusted input in the repo: anything can
// connect to a ShardServer and send anything. This harness drives the
// byte->frame seam with no socket in sight — the blob is replayed as a
// packetized stream through FrameBuffer (the server's reassembly path)
// and every complete frame is pushed through parse_frame plus its
// type's payload decoder, touching every byte the returned views claim.
// Every input must either be rejected with an esl::Error or decode into
// views that stay inside the blob; any other outcome (signal, sanitizer
// report, unhandled exception) is a finding.
//
// Build: -DESL_FUZZ=ON. Under Clang this links libFuzzer; elsewhere
// fuzz/standalone_main.cpp replays corpus files so the checked-in
// corpus doubles as a regression suite on every toolchain.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "net/wire.hpp"

namespace {

using esl::Real;
namespace net = esl::net;

/// Forces a read of every byte a decoded view claims to own, so ASan
/// sees any span that escaped the blob.
template <typename T>
std::uint64_t checksum(std::span<const T> data) {
  std::uint64_t sum = 0;
  const auto bytes = std::as_bytes(data);
  for (const std::byte b : bytes) {
    sum = sum * 131 + static_cast<std::uint64_t>(b);
  }
  return sum;
}

std::uint64_t decode_payload(const net::FrameView& view) {
  switch (static_cast<net::FrameType>(view.header.type)) {
    case net::FrameType::kHello:
      return net::decode_hello(view).nonce;
    case net::FrameType::kHelloAck:
      return net::decode_hello_ack(view).nonce;
    case net::FrameType::kOpenSession:
      return net::decode_open_session(view).routing_key;
    case net::FrameType::kOpenSessionAck:
      return net::decode_open_session_ack(view).server_session;
    case net::FrameType::kChunk: {
      const net::ChunkView chunk = net::decode_chunk(view);
      std::uint64_t sum = checksum(chunk.samples);
      for (std::uint32_t c = 0; c < chunk.channel_count; ++c) {
        sum += checksum(chunk.channel(c));
      }
      return sum;
    }
    case net::FrameType::kDetections:
      return checksum(net::decode_detections(view));
    case net::FrameType::kStats:
      return net::decode_stats(view).windows_classified;
    case net::FrameType::kSwapModel: {
      const std::string_view key = net::decode_swap_model(view);
      return checksum(std::span<const char>(key.data(), key.size()));
    }
    case net::FrameType::kError: {
      const net::ErrorView error = net::decode_error(view);
      return checksum(std::span<const char>(error.message.data(),
                                            error.message.size())) +
             static_cast<std::uint64_t>(error.code);
    }
    default:
      return 0;  // empty-payload types: nothing to decode
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // FrameBuffer owns its (aligned) storage, but replicate the staging
  // discipline anyway so direct parse_frame on the whole blob is legal.
  std::vector<Real> storage(size / sizeof(Real) + 1);
  std::memcpy(storage.data(), data, size);
  const std::span<const std::byte> bytes =
      std::as_bytes(std::span<const Real>(storage)).first(size);

  // One-shot parse of the blob front, as a fuzzable unit of its own.
  try {
    decode_payload(net::parse_frame(bytes));
  } catch (const esl::Error&) {
    // Malformed input correctly rejected at the boundary.
  }

  // Streamed replay: split the blob in two appends (the first byte
  // steers the split point) so reassembly and compaction run too.
  net::FrameBuffer buffer;
  const std::size_t split = size == 0 ? 0 : (data[0] * 37) % (size + 1);
  std::uint64_t sink = 0;
  try {
    buffer.append(bytes.first(split));
    net::FrameView view;
    while (buffer.next(view)) {
      sink += decode_payload(view);
    }
    buffer.append(bytes.subspan(split));
    while (buffer.next(view)) {
      sink += decode_payload(view);
    }
  } catch (const esl::Error&) {
    // Poisoned stream correctly rejected; no resynchronization.
  }
  return static_cast<int>(sink & 0);
}
