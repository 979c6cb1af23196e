// Sharded multi-patient detection service.
//
// The Engine (engine.hpp) is deliberately single-threaded: one batched
// inference pass over all of its sessions per poll(). DetectionService is
// the fleet-scale facade above it — it owns N shards, each wrapping one
// Engine, hash-partitions sessions across them, and delegates execution
// to a pluggable ExecutionBackend (backend.hpp): InlineBackend keeps
// today's deterministic caller-thread semantics; ThreadPoolBackend runs
// each shard on its own worker thread behind one bounded ingest queue
// (any number of producer threads) so radio chunks land off the
// inference threads.
//
// Sessions are addressed by an opaque SessionHandle (shard index +
// engine-local id packed into one uint64). Detections are delivered
// through a DetectionSink — either a caller-provided sink or the
// built-in collector drained with drain() — instead of a poll() return
// value the caller must pump.
//
// Parity contract (tests/engine/test_service.cpp): for the same
// per-session input streams, any backend at any shard count produces
// exactly the detections a single Engine would, per session and in
// window order; only cross-session delivery order is unspecified.
//
// The Engine remains public and usable directly for single-shard
// embedding (wearable gateways); the service is additive.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "engine/backend.hpp"
#include "engine/engine.hpp"
#include "ml/inference_model.hpp"

namespace esl::engine {

class ModelRegistry;

struct ServiceConfig {
  /// Number of shards (Engines). Sessions are hash-partitioned across
  /// them; more shards than worker cores buys nothing.
  std::size_t shards = 1;
  /// Per-shard engine configuration (screening, session defaults).
  EngineConfig engine;
};

class DetectionService {
 public:
  /// `fleet_model` is shared by every shard's Engine (RealtimeDetector
  /// const methods are safe for concurrent readers once fitted; see
  /// core/realtime_detector.hpp). A null `backend` selects
  /// InlineBackend. The backend is started in the constructor and
  /// stopped in the destructor (or an explicit stop()).
  explicit DetectionService(
      std::shared_ptr<const core::RealtimeDetector> fleet_model,
      ServiceConfig config = {},
      std::unique_ptr<ExecutionBackend> backend = nullptr);
  ~DetectionService();

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  const char* backend_name() const { return backend_->name(); }

  /// Creates a session on the shard chosen by hashing `routing_key`
  /// (stable: the same key always lands on the same shard for a given
  /// shard count). The overloads without a key use an internal counter,
  /// spreading sessions uniformly. Validates `config` up front
  /// (InvalidArgument on bad geometry). Safe to call while traffic is
  /// flowing to other sessions.
  SessionHandle create_session();
  SessionHandle create_session(const SessionConfig& config);
  SessionHandle create_session(std::uint64_t routing_key,
                               const SessionConfig& config);
  std::size_t session_count() const;

  /// Feeds one chunk (one span per channel, equal lengths) to a session.
  /// InlineBackend extracts windows on the calling thread;
  /// ThreadPoolBackend copies the chunk into the shard's bounded ingest
  /// queue and returns (blocking only for backpressure when the shard
  /// lags). Thread-safe across distinct sessions; chunks for one session
  /// must come from one thread at a time (they are a time series).
  /// Under RemoteBackend, ingest may deliver detections to the sink on
  /// the calling thread, and it may rethrow a server-reported error for
  /// any chunk sent earlier on the connection, as flush() already could.
  void ingest(SessionHandle handle,
              const std::vector<std::span<const Real>>& chunk);

  /// Barrier: every chunk ingested before the call has been windowed,
  /// classified, and delivered to the sink when it returns. Under
  /// InlineBackend this is the per-round poll.
  void flush();

  /// Asynchronous scoped barrier: like flush(), but only covers the
  /// shards hosting `handles` — other shards keep streaming unbarriered
  /// — and returns immediately; `done` runs exactly once, after every
  /// chunk already ingested for `handles`' shards has been delivered to
  /// the sink. Duplicate shards in `handles` are coalesced; an empty
  /// span runs `done` at once. Under ThreadPoolBackend `done` runs on a
  /// shard worker thread — it must not call back into the service.
  /// Backends without workers run it inline before returning.
  void flush_sessions_async(std::span<const SessionHandle> handles,
                            std::function<void()> done);

  /// Closes one session: its engine slot is tombstoned (the id is never
  /// reused and session_count() still counts it), pending undelivered
  /// windows are dropped (flush first to keep them), and later ingest()
  /// calls for the handle silently discard their chunks, on every
  /// backend (a remote one does not send them) — chunks
  /// already queued on a shard worker race the close benignly. Control
  /// accessors (session(), swap_model(), ...) throw for a closed
  /// handle. A remote backend mirrors the close to its server.
  void close_session(SessionHandle handle);

  /// Moves every detection collected since the last drain onto the back
  /// of `out`; returns how many. Typically called after flush(). Only
  /// meaningful while no custom sink is set.
  std::size_t drain(std::vector<Detection>& out);

  /// Replaces the built-in collector with a caller sink (nullptr
  /// restores the collector). Under ThreadPoolBackend the sink is
  /// invoked from worker threads — it must be thread-safe. Under
  /// RemoteBackend it runs on the thread calling ingest() or flush().
  /// Set it before traffic starts.
  void set_detection_sink(DetectionSink* sink);

  /// Fleet-wide hooks, as on Engine but with packed SessionHandle ids.
  /// Under ThreadPoolBackend they run on worker threads, and they always
  /// run while their session's shard is locked — do not call back into
  /// the service from inside a hook (stats(), patient_trigger(), ...
  /// would deadlock), and order any locks the hook takes after the
  /// service's. Set hooks before traffic starts.
  void set_alarm_hook(std::function<void(const Detection&)> hook);
  void set_label_hook(
      std::function<void(SessionHandle, const signal::Interval&)> hook);

  /// Self-learning control plane; serialized with the session's shard,
  /// so safe to call while other shards stream. Flush first if the
  /// trigger must observe every chunk already ingested.
  void attach_self_learning(SessionHandle handle,
                            const core::SelfLearningConfig& config);
  bool has_self_learning(SessionHandle handle) const;
  signal::Interval patient_trigger(SessionHandle handle);

  /// Atomically deploys `model` for one session's future windows, under
  /// the session's shard lock — no flush or stop needed, on any backend,
  /// while ingest keeps flowing. Windows the shard already classified
  /// keep their labels; every window polled after the swap uses `model`.
  /// nullptr restores the automatic fleet/pipeline model choice. This is
  /// the self-learning redeploy path: patient_trigger ->
  /// RealtimeDetector::compile() -> swap_model, all mid-stream.
  void swap_model(SessionHandle handle,
                  std::shared_ptr<const ml::InferenceModel> model);
  /// Swap-from-disk: deploys the registry's mapped artifact for
  /// `patient_key` (engine/model_registry.hpp) — the fleet redeploy
  /// path, where personalized models arrive as files from a separate
  /// training process instead of an in-process fit. Equivalent to
  /// swap_model(handle, registry.open(patient_key)); same mid-stream
  /// guarantees, on any backend.
  void swap_model(SessionHandle handle, const ModelRegistry& registry,
                  std::string_view patient_key);
  /// The model currently classifying one session's windows (snapshot
  /// under the shard lock; nullptr while the session is cold).
  std::shared_ptr<const ml::InferenceModel> session_model(
      SessionHandle handle) const;

  /// Alarms raised by one session so far (thread-safe snapshot).
  std::size_t session_alarms(SessionHandle handle) const;

  /// Direct session access. Only safe when the session's shard is
  /// quiescent (after flush(), with no concurrent ingest for it).
  const PatientSession& session(SessionHandle handle) const;

  /// Counters aggregated across all shards. Exact after a flush().
  EngineStats stats() const;

  /// Stops the backend early (drains in-flight work). Idempotent; the
  /// destructor calls it.
  void stop();

 private:
  /// Built-in thread-safe detection collector behind drain().
  class Collector final : public DetectionSink {
   public:
    void on_detections(std::span<const Detection> detections) override;
    std::size_t drain(std::vector<Detection>& out);

   private:
    Mutex mutex_;
    std::vector<Detection> buffer_ ESL_GUARDED_BY(mutex_);
  };

  /// The sink handed to the backend: forwards to the user sink when one
  /// is set, to the collector otherwise.
  class Router final : public DetectionSink {
   public:
    explicit Router(DetectionService& service) : service_(service) {}
    void on_detections(std::span<const Detection> detections) override;

   private:
    DetectionService& service_;
  };

  Shard& shard_for(SessionHandle handle);
  const Shard& shard_for(SessionHandle handle) const;
  /// Deduplicated shard indices hosting `handles`, appended onto `out`.
  void collect_shards(std::span<const SessionHandle> handles,
                      std::vector<std::uint32_t>& out) const;

  ServiceConfig config_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ExecutionBackend> backend_;
  bool started_ = false;

  Collector collector_;
  Router router_;
  std::atomic<DetectionSink*> user_sink_{nullptr};

  std::size_t required_channels_ = 0;
  std::atomic<std::uint64_t> next_routing_key_{0};
  /// Sessions per shard, readable on the hot ingest path without the
  /// shard mutex (only create_session writes it).
  std::vector<std::atomic<std::uint64_t>> shard_sessions_;
};

}  // namespace esl::engine
