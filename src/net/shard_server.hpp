// ShardServer: the serving front door for a DetectionService.
//
// One server process owns a DetectionService (N shards, inline or
// thread-pool backend) plus an optional ModelRegistry, listens on a
// POSIX socket (unix or tcp, platform/socket.hpp), and speaks the
// net/wire.hpp frame protocol with any number of client connections.
// Each connection is an independent conversation: hello, then open
// sessions (routed by the client's routing key through the service's
// own splitmix64 hash), stream chunks, flush barriers, registry model
// swaps, stats — with detection batches streamed back tagged with the
// client's own session ids. A patient's press is labeled client-side:
// the client saves the retrained artifact into the registry and asks
// for a kSwapModel.
//
// Concurrency shape: one event-loop thread multiplexes the listener
// and every connection with poll(2). Frame decode + service calls run
// on the loop thread; detections are produced wherever the service's
// backend runs them (the loop thread under inline, shard workers under
// threads) and land in per-connection outboxes through the DetectionSink
// — the only cross-thread seam, guarded by a per-connection mutex plus
// a self-pipe wake so the loop starts writing without waiting for
// socket traffic.
//
// Backpressure: client -> server ingest backpressure is the socket
// buffer. The loop reads at most 64 KiB of a connection's input per
// pass, and only once the frames already read are handled, so the input
// buffer stays small however fast a client sends. Server -> client
// detections go out as they are produced, and the client reads them on
// each batch send, so its queued output stays small. A client that
// stops reading is held back by a fixed cap on the connection's queued
// output (k_max_queued_output_bytes: outbox plus unsent staging). Over
// the cap, the loop stops handling the connection's frames and stops
// polling it for input, so its ingest stays in the socket buffers and,
// once they fill, its sends block. Work already queued on the shards
// keeps reaching the outbox, so the overshoot is bounded by that work.
// Below the cap, handling and reading resume. Under the threaded
// backend the loop thread pushes each chunk into its shard's bounded
// IngestQueue (engine/ingest_queue.hpp) and blocks there while that
// queue is full.
//
// Flush: a kFlush barriers only the requesting connection's sessions
// (their shards), asynchronously — the loop pushes one flush marker
// into each covered shard's ingest queue, which never waits for room,
// and keeps serving every connection; when the last covered worker
// reaches its marker, after delivering every chunk queued ahead of it,
// it queues the kFlushAck behind the detections the barrier covered
// (the ack-never-overtakes-detections ordering clients rely on). One
// chatty client's flush cadence therefore cannot serialize the fleet.
// Under the inline backend the barrier degenerates to a synchronous
// per-shard poll on the loop thread.
//
// Failure semantics: malformed bytes (bad magic/version/length) poison
// the connection — it is dropped, nothing else is affected. Well-formed
// frames whose *request* fails (unknown session, bad config, registry
// miss) get a kError frame carrying the exception type and message, and
// the conversation continues. A client can retire one session with
// kCloseSession; dropping a connection (orderly close, EOF, or poison)
// closes all of its server-side sessions, so engine slots do not leak
// across client churn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "engine/model_registry.hpp"
#include "engine/service.hpp"
#include "net/wire.hpp"
#include "platform/socket.hpp"

namespace esl::net {

/// Per-connection cap on output queued for the client (outbox plus
/// unsent staging). Over it, the server handles no more of that
/// connection's frames until the client drains its output. One ingest
/// batch's worth: a client that reads on every send stays far below.
inline constexpr std::size_t k_max_queued_output_bytes = 64 * 1024;

struct ShardServerConfig {
  /// Listen address ("unix:PATH" or "tcp:HOST:PORT"; tcp port 0 binds
  /// an ephemeral port, readable from address() after start()).
  platform::SocketAddress address;
  /// Shards + per-shard engine config for the owned service.
  engine::ServiceConfig service;
  /// False: InlineBackend (classification on the loop thread at flush).
  /// True: ThreadPoolBackend (one worker per shard, detections stream
  /// back between flushes).
  bool threaded_backend = false;
  /// Model registry directory for kSwapModel; empty disables swaps.
  std::string registry_directory;
};

class ShardServer {
 public:
  ShardServer(std::shared_ptr<const core::RealtimeDetector> fleet_model,
              ShardServerConfig config);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Binds the listener and spawns the event-loop thread. Throws
  /// DataError when the address cannot be bound.
  void start();
  /// Wakes and joins the loop, closes every connection, stops the
  /// service. Idempotent; the destructor calls it.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The resolved listen address (tcp port 0 becomes the kernel's
  /// choice). Valid after start().
  const platform::SocketAddress& address() const {
    return listener_.address();
  }

  /// The owned service (e.g. for out-of-band stats in tests/tools).
  engine::DetectionService& service() { return *service_; }

  /// Output queued for clients and not yet written (outboxes plus
  /// unsent staging), summed over the live connections. Any thread.
  std::size_t queued_output_bytes() const;

 private:
  /// One client conversation. Only the loop thread touches a
  /// Connection, except `outbox` and `queued`, which detection sinks
  /// raise from wherever the service backend runs.
  struct Connection {
    platform::Socket socket;
    FrameBuffer incoming;
    /// Server-unique id, assigned at accept (loop thread only after
    /// that). Async flush completions address the connection by id so a
    /// completion racing the drop can miss cleanly instead of touching
    /// a freed Connection.
    std::uint64_t id = 0;
    /// Frames queued for this socket by other threads (detection
    /// batches, flush acks); the loop moves them into `sending`.
    Mutex outbox_mutex;
    std::vector<std::byte> outbox ESL_GUARDED_BY(outbox_mutex);
    /// Loop-thread staging for partially-written bytes.
    std::vector<std::byte> sending;
    std::size_t sent = 0;
    /// Bytes in `outbox` plus the unsent tail of `sending`: raised by
    /// whoever appends to the outbox (under its mutex), lowered by the
    /// loop as the socket accepts bytes.
    std::atomic<std::size_t> queued{0};
    /// The last frame pass stopped at the output cap, so `incoming` may
    /// still hold frames (loop thread only).
    bool stalled = false;
    /// Reusable per-connection detection accumulator for the sink path.
    /// Accessed only with route_mutex_ held (the sink's translate pass
    /// runs under it; Clang's analysis cannot tie this member to
    /// another object's mutex, so the discipline is by comment).
    DetectionBatcher batcher;
    /// Client session id -> server handle (loop thread only).
    std::unordered_map<std::uint64_t, engine::SessionHandle> sessions;
    bool saw_hello = false;
    /// Close-ack queued: drop the connection once `sending` drains.
    bool closing = false;
  };

  /// Translates service detections (server handles) back to client
  /// session ids and queues one kDetections frame per connection.
  class Sink final : public engine::DetectionSink {
   public:
    explicit Sink(ShardServer& server) : server_(server) {}
    void on_detections(std::span<const engine::Detection> detections) override;

   private:
    ShardServer& server_;
  };

  void run();
  void accept_pending();
  /// Reads what the socket holds when `readable`, then handles buffered
  /// frames while the connection's output is under the cap; returns
  /// false when the connection must be dropped (EOF or poisoned stream).
  bool service_input(Connection& connection, bool readable);
  void handle_frame(Connection& connection, const FrameView& view);
  /// Moves outbox bytes into `sending` and writes what the socket
  /// accepts; returns false when the peer is gone.
  bool service_output(Connection& connection);
  static bool wants_output(const Connection& connection);
  static bool over_cap(const Connection& connection);
  void drop_connection(std::size_t index);
  void queue_error(Connection& connection, std::uint64_t sequence,
                   WireErrorCode code, std::string_view message);
  /// Runs `encode(outbox)` under the connection's outbox mutex and
  /// wakes the loop — encoders append straight into the outbox, so the
  /// reply path allocates nothing once the outbox is warm. Any thread.
  template <typename Encode>
  void queue_frame(Connection& connection, Encode&& encode) {
    {
      MutexLock lock(connection.outbox_mutex);
      const std::size_t before = connection.outbox.size();
      encode(connection.outbox);
      connection.queued.fetch_add(connection.outbox.size() - before,
                                  std::memory_order_relaxed);
    }
    wake_.wake();
  }
  /// Async-flush completion: queues the kFlushAck to connection
  /// `connection_id` if it is still alive. Runs on a shard worker
  /// thread under the threaded backend, inline on the loop thread under
  /// the inline backend.
  void complete_flush(std::uint64_t connection_id, std::uint64_t sequence);

  ShardServerConfig config_;
  std::unique_ptr<engine::DetectionService> service_;
  std::unique_ptr<engine::ModelRegistry> registry_;
  Sink sink_;

  platform::ListenSocket listener_;
  platform::WakePipe wake_;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<Connection>> connections_;  // loop thread only
  std::uint64_t next_connection_id_ = 1;                  // loop thread only
  /// Loop-thread scratch for scoped flushes (reused per kFlush).
  std::vector<engine::SessionHandle> flush_scratch_;
  /// Loop-thread scratch for a chunk frame's channel views (reused per
  /// kChunk).
  std::vector<std::span<const Real>> chunk_scratch_;

  /// Reverse route for the sink: server handle value -> (connection,
  /// client session id). Written by the loop on open, erased on drop;
  /// read by detection sinks on backend threads.
  struct Route {
    Connection* connection = nullptr;
    std::uint64_t client_id = 0;
  };
  mutable Mutex route_mutex_;
  std::unordered_map<std::uint64_t, Route> routes_ ESL_GUARDED_BY(route_mutex_);
  /// Connections alive, by id — the async flush completion's existence
  /// check. Maintained alongside connections_ under route_mutex_.
  std::unordered_map<std::uint64_t, Connection*> live_
      ESL_GUARDED_BY(route_mutex_);
  /// Sink scratch: connections touched by one on_detections pass
  /// (guarded by route_mutex_, which serializes sink passes).
  std::vector<Connection*> sink_touched_ ESL_GUARDED_BY(route_mutex_);
};

}  // namespace esl::net
