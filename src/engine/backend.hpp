// Pluggable execution backends for the sharded DetectionService.
//
// The Engine is single-threaded by design; the service scales it out by
// owning N shards (one Engine each) and delegating *how* those shards
// execute to an ExecutionBackend:
//
//   * InlineBackend — everything on the caller's thread, shard by shard,
//     preserving the exact deterministic semantics of driving a single
//     Engine directly (ingest -> poll per flush). Zero threads, zero
//     queues; the right choice for tests, embedding, and single-core
//     edge gateways.
//   * ThreadPoolBackend — one worker thread per shard. ingest() copies
//     the chunk into the shard's bounded IngestQueue (any number of
//     producer threads) and returns; the worker drains the queue, runs
//     Engine::ingest + poll off the caller's thread, and delivers
//     detections to the DetectionSink. flush() is a barrier: every
//     chunk enqueued before it has been windowed, classified, and
//     delivered when it returns; flush_shards_async() scopes the
//     barrier to a subset of shards so one caller's barrier does not
//     stall the rest of the fleet.
//
// Ordering guarantee (both backends): detections for one session are
// always delivered in window order. Cross-session/cross-shard ordering
// is unspecified under ThreadPoolBackend — per-session streams are
// independent, so interleaving across shards carries no information.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "engine/engine.hpp"
#include "engine/ingest_queue.hpp"

namespace esl::engine {

/// Opaque session address: shard index and engine-local session id packed
/// into one uint64, so code written against raw Engine ids migrates
/// mechanically (with one shard, value == the Engine id).
struct SessionHandle {
  std::uint64_t value = 0;

  static constexpr unsigned k_shard_bits = 16;
  static constexpr unsigned k_local_bits = 64 - k_shard_bits;
  static constexpr std::uint64_t k_local_mask = (1ull << k_local_bits) - 1;
  static constexpr std::size_t k_max_shards = 1ull << k_shard_bits;

  static constexpr SessionHandle pack(std::uint32_t shard,
                                      std::uint64_t local_id) {
    return SessionHandle{(static_cast<std::uint64_t>(shard) << k_local_bits) |
                         (local_id & k_local_mask)};
  }
  constexpr std::uint32_t shard() const {
    return static_cast<std::uint32_t>(value >> k_local_bits);
  }
  constexpr std::uint64_t local_id() const { return value & k_local_mask; }

  friend constexpr bool operator==(SessionHandle, SessionHandle) = default;
};

/// Receives classified windows from the backend. Detection::session_id
/// carries the packed SessionHandle value. Calls are serialized per
/// shard; under ThreadPoolBackend different shards deliver concurrently
/// from their worker threads, so implementations must be thread-safe.
class DetectionSink {
 public:
  virtual ~DetectionSink() = default;
  virtual void on_detections(std::span<const Detection> detections) = 0;
};

/// One service shard: an Engine plus the mutex that serializes worker
/// data-plane access with control-plane calls (create_session,
/// patient_trigger, stats) arriving on other threads.
///
/// The Engine itself is single-threaded by design and carries no lock of
/// its own; `engine` is the one concurrent doorway to it, so the pointee
/// annotation below is what makes every Engine member — session slots,
/// hook functions, poll scratch — statically lock-checked: under Clang,
/// dereferencing `engine` without holding `mutex` is a build break.
struct Shard {
  std::uint32_t index = 0;
  /// Owned by the DetectionService; only dereference with `mutex` held.
  Engine* engine ESL_PT_GUARDED_BY(mutex) = nullptr;
  mutable Mutex mutex;
};

/// How shards execute. The service calls start() once before any
/// traffic and stop() before destroying the shards; implementations
/// must not touch shards or the sink outside that bracket.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual const char* name() const = 0;

  /// `shards` and `sink` outlive the backend's started interval.
  virtual void start(std::vector<std::unique_ptr<Shard>>& shards,
                     DetectionSink& sink) = 0;

  /// Drains in-flight work, then joins/clears any workers. Idempotent;
  /// no sink call happens after it returns.
  virtual void stop() = 0;

  /// Routes one chunk (one span per channel) to `shard`'s session
  /// `local_id`. May block for backpressure (bounded queues). A remote
  /// backend may also deliver detections to the sink on the calling
  /// thread, and may rethrow a server-reported error for any chunk sent
  /// earlier on the connection, as flush() already could.
  virtual void ingest(Shard& shard, std::uint64_t local_id,
                      const std::vector<std::span<const Real>>& chunk) = 0;

  /// Observation hook: the service announces every session it creates,
  /// after the shard's Engine accepted it. In-process backends ignore
  /// this (the shard's Engine already owns the session); a remote
  /// backend mirrors the session to its server with the original
  /// routing key so both sides of the wire route identically. Called
  /// with the session's shard mutex held (a throw here rolls the local
  /// session back atomically), so implementations must not call back
  /// into the service. Throwing fails the create with no session made.
  virtual void on_session_created(std::uint32_t shard_index,
                                  std::uint64_t local_id,
                                  std::uint64_t routing_key,
                                  const SessionConfig& config) {
    (void)shard_index;
    (void)local_id;
    (void)routing_key;
    (void)config;
  }

  /// Barrier: when it returns, every chunk ingested before the call has
  /// been windowed, classified, and delivered to the sink.
  virtual void flush() = 0;

  /// Asynchronous scoped barrier: `done` runs exactly once, after every
  /// chunk already ingested into the named shards has been delivered to
  /// the sink; other shards are untouched and keep streaming. The
  /// caller's thread is not blocked; `done` may run on a worker thread
  /// (or inline, on backends without workers), so it must not call back
  /// into the backend. Errors captured from workers are rethrown here,
  /// before the barrier is registered. The default runs the full
  /// barrier, a correct (if wider) superset, then `done` inline.
  virtual void flush_shards_async(std::span<const std::uint32_t> shard_indices,
                                  std::function<void()> done) {
    (void)shard_indices;
    flush();
    if (done) {
      done();
    }
  }

  /// Removes one session from its shard's Engine: the slot is
  /// tombstoned (its id is never reused), chunks still queued for it
  /// are silently dropped when the worker reaches them, and a remote
  /// backend mirrors the close to its server. Flush first if pending
  /// windows must still be delivered.
  virtual void close_session(Shard& shard, std::uint64_t local_id);
};

/// Caller-thread execution: ingest() forwards straight into the Engine,
/// flush() polls each shard in index order, flush_shards_async() polls
/// the named shards and then runs `done` before returning. Bit-identical
/// to driving the Engines directly, with fully deterministic delivery
/// order.
class InlineBackend final : public ExecutionBackend {
 public:
  const char* name() const override { return "inline"; }
  void start(std::vector<std::unique_ptr<Shard>>& shards,
             DetectionSink& sink) override;
  void stop() override;
  void ingest(Shard& shard, std::uint64_t local_id,
              const std::vector<std::span<const Real>>& chunk) override;
  void flush() override;
  void flush_shards_async(std::span<const std::uint32_t> shard_indices,
                          std::function<void()> done) override;

 private:
  void poll_shard(const Shard& shard);

  std::vector<std::unique_ptr<Shard>>* shards_ = nullptr;
  DetectionSink* sink_ = nullptr;
  std::vector<Detection> scratch_;  // reused per-flush detection buffer
};

struct ThreadPoolConfig {
  /// Bounded chunks per shard ingest queue; producers block when full.
  std::size_t queue_capacity = 64;
  /// No effect: every shard runs the same multi-producer IngestQueue.
  /// Kept only because perfbench/src/stream.cpp still sets it; delete
  /// the field together with that line.
  bool single_producer = false;
};

/// One worker thread per shard; chunks flow through bounded ingest
/// queues so producers never run feature extraction or inference.
class ThreadPoolBackend final : public ExecutionBackend {
 public:
  explicit ThreadPoolBackend(ThreadPoolConfig config = {});
  ~ThreadPoolBackend() override;

  const char* name() const override { return "threads"; }
  void start(std::vector<std::unique_ptr<Shard>>& shards,
             DetectionSink& sink) override;
  void stop() override;
  void ingest(Shard& shard, std::uint64_t local_id,
              const std::vector<std::span<const Real>>& chunk) override;
  void flush() override;
  void flush_shards_async(std::span<const std::uint32_t> shard_indices,
                          std::function<void()> done) override;

 private:
  struct Worker {
    explicit Worker(std::size_t capacity) : queue(capacity) {}
    IngestQueue queue;
    std::thread thread;
  };

  /// One outstanding scoped barrier. Each covered worker owns one leg
  /// (its index plus the queue.pushed() watermark snapshotted when the
  /// barrier was made); a worker confirms its leg once queue.popped()
  /// reaches the watermark *at its post-delivery scan point* — popped()
  /// advances in pop_all, before detections reach the sink, so legs are
  /// never pre-filtered at creation. When the last leg confirms, the
  /// barrier completes: sync waiters are notified via flush_cv_, async
  /// barriers run `callback` on the confirming worker's thread (outside
  /// flush_mutex_).
  struct FlushBarrier {
    std::vector<std::pair<std::size_t, std::uint64_t>> legs;
    bool completed = false;
    std::function<void()> callback;
  };

  void run_worker(std::size_t index);
  /// flush() without the worker-error rethrow (stop() must join first).
  void flush_barrier();
  /// Registers a barrier over `shard_indices`. Null callback: blocks
  /// until the barrier completes. Non-null: returns immediately; the
  /// callback runs when it completes.
  void run_barrier(std::span<const std::uint32_t> shard_indices,
                   std::function<void()> callback);
  /// Rethrows the first captured worker exception, if any.
  void rethrow_worker_error();

  ThreadPoolConfig config_;
  std::vector<std::unique_ptr<Shard>>* shards_ = nullptr;
  DetectionSink* sink_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;

  mutable Mutex flush_mutex_;
  CondVar flush_cv_;
  std::vector<std::unique_ptr<FlushBarrier>> barriers_
      ESL_GUARDED_BY(flush_mutex_);
  std::atomic<bool> stopping_{false};

  // First exception thrown on a worker thread (engine precondition
  // violations surface on the caller's thread at the next flush/stop).
  Mutex error_mutex_;
  std::exception_ptr worker_error_ ESL_GUARDED_BY(error_mutex_);
};

}  // namespace esl::engine
