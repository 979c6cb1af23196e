// Client side of the cross-process serving tier.
//
// ShardClient is the thin synchronous wire conversation: one connected
// socket, one request/ack exchange at a time, with server-pushed
// detection batches collected on the side. The client reads whenever it
// sends — each 64 KiB ingest batch and each request — so detections
// reach it while the stream runs, not only at a barrier. RemoteBackend
// stacks it under the ExecutionBackend interface so a DetectionService
// whose shards live in another process is driven by exactly the code
// that drives an in-process one:
//
//   DetectionService (client process)          ShardServer (server)
//     create_session(key, cfg) ──open-session frame──▶ create_session(key, cfg)
//     ingest(handle, chunk)    ──chunk frames (batched)▶ ingest(shard, chunk)
//        ◀──detection frames, read on the next batch send──
//     flush()                  ──flush frame─────────▶ flush()
//        ◀──detection frames, flush-ack──
//
// The client service still allocates handles and validates configs and
// chunks locally (its Engines hold the mirrored sessions but never
// classify — compute happens server-side), and the routing key crosses
// the wire so the server's splitmix64 routing sees exactly what the
// in-process router saw. Parity contract: per session, the detections
// a remote service delivers are bit-for-bit the ones an in-process
// service (and therefore a single Engine) would deliver
// (tests/net/test_loopback.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/types.hpp"
#include "engine/backend.hpp"
#include "engine/patient_session.hpp"
#include "net/wire.hpp"
#include "platform/socket.hpp"

namespace esl::net {

/// Ingest chunks accumulate in the client's encode buffer until this
/// many bytes are pending, then go out in one send; any awaited call
/// (flush, stats, ...) sends the pending batch first, so batching never
/// reorders a chunk past the barrier that should cover it.
inline constexpr std::size_t k_ingest_batch_bytes = 64 * 1024;

/// Synchronous conversation with one ShardServer. Not thread-safe —
/// callers (RemoteBackend) serialize. A server-reported failure surfaces
/// as the matching exception type (InvalidArgument / DataError / Error)
/// carrying the server's message, thrown by the call that read the
/// error frame: an awaited call, or an ingest that sent its batch.
///
/// Every send also reads: whatever the socket holds once a batch is out,
/// and, while the send buffer is full, everything the server pushes. The
/// server stops reading a connection whose queued output is over its cap
/// (k_max_queued_output_bytes in net/shard_server.hpp), so a send that
/// could not read would deadlock against it.
class ShardClient {
 public:
  ShardClient() = default;

  /// Connects and runs the hello handshake (version, endianness and
  /// sample width are checked on every frame by validate()).
  void connect(const platform::SocketAddress& address);
  bool connected() const { return socket_.valid(); }

  /// Server topology, learned from the hello ack.
  std::uint32_t shard_count() const { return shard_count_; }
  bool has_registry() const {
    return (flags_ & k_hello_flag_registry) != 0;
  }

  /// Opens a server-side session mirroring client session `client_id`
  /// (an opaque key the server addresses detections back to; the
  /// RemoteBackend uses the packed SessionHandle value). Returns the
  /// server's own handle value (diagnostic only).
  std::uint64_t open_session(std::uint64_t client_id,
                             std::uint64_t routing_key,
                             const engine::SessionConfig& config);

  /// Queues one ingest chunk (no ack). Chunks batch in the encode
  /// buffer and go out once k_ingest_batch_bytes are pending or any
  /// awaited call runs, whichever comes first. A call that sends the
  /// batch then reads what the server has pushed without blocking: the
  /// detections wait in take_detections(), and an error frame among them
  /// is thrown from here.
  void ingest(std::uint64_t client_id,
              const std::vector<std::span<const Real>>& chunk);

  /// Appends the detections read so far (client session ids) to `out`.
  void take_detections(std::vector<engine::Detection>& out);

  /// Flush barrier: every chunk sent before the call has been
  /// classified server-side when this returns. Detections received up
  /// to the ack (including any collected by earlier calls) are appended
  /// to `out` with client session ids.
  void flush(std::vector<engine::Detection>& out);

  engine::EngineStats stats();

  /// Deploys the server registry's artifact for `key` onto the mirrored
  /// session.
  void swap_model(std::uint64_t client_id, std::string_view key);

  /// Retires the server-side session mirroring `client_id`: the server
  /// frees its engine slot and forgets the detection route. Awaits the
  /// ack, so on return no more detections for this session arrive.
  void close_session(std::uint64_t client_id);

  /// Orderly goodbye (close / close-ack), then drops the socket.
  /// Detections still in flight are discarded. Idempotent.
  void close();

 private:
  /// A server error frame read while no call could throw it yet (the
  /// send it arrived during was still going out).
  struct HeldError {
    WireErrorCode code = WireErrorCode::kInternal;
    std::string message;
  };

  /// Sends the encode buffer. While the socket's send buffer is full it
  /// waits for readable-or-writable and reads what the server pushed.
  void send_frame();
  /// read_available(), then decode() with no ack awaited.
  void receive();
  /// Appends what the socket holds right now to `incoming_`; never
  /// blocks. Throws DataError when the server closed the connection.
  void read_available();
  /// Decodes buffered frames: detection batches into `pending_`, stale
  /// acks (a reply overtaken by an earlier error) skipped. Stops at an
  /// error frame, held in `error_`, and, when `ack` is set, at the ack of
  /// `type` echoing `sequence`, returned in `*ack`. Returns whether that
  /// ack was found.
  bool decode(FrameType type, std::uint64_t sequence, FrameView* ack);
  /// Throws the held error, if any, as its exception type.
  void throw_held_error();
  /// Reads until the ack of `type` echoing `sequence` arrives; an error
  /// frame on the way is thrown as its exception type.
  FrameView await(FrameType type, std::uint64_t sequence);

  platform::Socket socket_;
  FrameBuffer incoming_;
  /// Encode buffer: ingest chunks accumulate here until the batch
  /// threshold or an awaited call sends them; send_frame() drains it.
  std::vector<std::byte> outgoing_;
  std::uint64_t next_sequence_ = 1;
  std::uint32_t shard_count_ = 0;
  std::uint32_t flags_ = 0;
  /// Detections read from the socket, not yet handed to a caller.
  std::vector<engine::Detection> pending_;
  std::optional<HeldError> error_;
};

/// ExecutionBackend that forwards every shard's traffic to a
/// ShardServer. The DetectionService using it keeps local handle
/// allocation, config and chunk validation, and splitmix64 placement;
/// classification happens in the server process, and detections flow
/// back into the service's DetectionSink as the client reads them.
///
/// One mutex serializes the wire conversation: ingest from concurrent
/// sessions, session creation, flush and the control-plane extras all
/// take turns on the socket. Every send reads what the server pushed.
/// ingest() and flush() hand the detections read so far to the sink on
/// the caller's thread, under the mutex, so they arrive with the batch
/// send after they were classified; flush() is only the barrier. The
/// control-plane calls run under a shard mutex, so they only collect:
/// their detections wait for the next ingest or flush.
class RemoteBackend final : public engine::ExecutionBackend {
 public:
  explicit RemoteBackend(platform::SocketAddress address);
  ~RemoteBackend() override;

  const char* name() const override { return "remote"; }
  void start(std::vector<std::unique_ptr<engine::Shard>>& shards,
             engine::DetectionSink& sink) override;
  void stop() override;
  /// A chunk with no samples is a no-op, as in process: nothing is sent.
  void ingest(engine::Shard& shard, std::uint64_t local_id,
              const std::vector<std::span<const Real>>& chunk) override;
  void flush() override;
  void on_session_created(std::uint32_t shard_index, std::uint64_t local_id,
                          std::uint64_t routing_key,
                          const engine::SessionConfig& config) override;
  /// Tombstones the local mirror slot, then retires the server-side
  /// session so neither process leaks the slot. Later ingest() calls for
  /// the session discard their chunks without sending them.
  void close_session(engine::Shard& shard, std::uint64_t local_id) override;

  /// Control-plane extras addressed to the server process (the local
  /// DetectionService equivalents would consult the idle mirror
  /// Engines). All thread-safe.
  engine::EngineStats remote_stats();
  void remote_swap_model(engine::SessionHandle handle, std::string_view key);
  bool server_has_registry();

 private:
  /// Hands the detections in scratch_ to the sink.
  void deliver() ESL_REQUIRES(mutex_);

  platform::SocketAddress address_;
  engine::DetectionSink* sink_ = nullptr;
  mutable Mutex mutex_;
  ShardClient client_ ESL_GUARDED_BY(mutex_);
  std::vector<engine::Detection> scratch_ ESL_GUARDED_BY(mutex_);
  /// Per shard, one flag per local session id, set at close: ingest
  /// drops a closed session's chunks here, as Engine::ingest does in
  /// process, instead of sending them for the server to refuse.
  std::vector<std::vector<bool>> closed_ ESL_GUARDED_BY(mutex_);
};

}  // namespace esl::net
