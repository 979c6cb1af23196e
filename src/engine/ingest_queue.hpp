// Bounded ingest queue for the threaded execution backend.
//
// Radio packets (EEG chunks) arrive on producer threads; each shard's
// worker thread drains them into its Engine. The queue copies the
// caller's sample spans into owned per-chunk storage (the spans are only
// valid during the ingest call), bounds memory with a blocking push
// (backpressure instead of unbounded growth when a shard falls behind),
// and recycles consumed chunk storage through a free pool so
// steady-state streaming does not allocate.
//
// Multi-producer / single-consumer, serialized by one mutex. FIFO order
// is global across producers: the order push() calls commit is the
// order pop_all() hands chunks to the consumer, which is what makes
// per-session window order — and therefore detection parity with a
// single-threaded Engine — hold under the ThreadPoolBackend.
//
// push() is safe from any number of threads; pop_all()/recycle()/wait()
// belong to the single consumer thread; wake()/close()/size()/pushed()/
// popped() are safe from any thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/types.hpp"

namespace esl::engine {

/// One enqueued EEG chunk: an engine-local session id plus an owned copy
/// of the per-channel samples.
struct IngestChunk {
  std::uint64_t session_id = 0;
  std::vector<RealVector> channels;
};

/// Bounded FIFO of IngestChunks between ingest producers and one shard
/// worker.
class IngestQueue final {
 public:
  /// `capacity` bounds the number of queued chunks (>= 1); producers
  /// block in push() while the queue is full.
  explicit IngestQueue(std::size_t capacity);

  /// Copies `chunk` (one span per channel) into owned storage and
  /// enqueues it, blocking while the queue is full. Returns false when
  /// the queue was closed (the chunk is dropped).
  bool push(std::uint64_t session_id,
            const std::vector<std::span<const Real>>& chunk);

  /// Moves every queued chunk onto the back of `out` (consumer side);
  /// returns how many were moved.
  std::size_t pop_all(std::vector<IngestChunk>& out);

  /// Returns consumed chunks' storage to the free pool for reuse by
  /// later pushes; clears `consumed`. Consumer side.
  void recycle(std::vector<IngestChunk>& consumed);

  /// Blocks the consumer until the queue is non-empty, wake() is called,
  /// or the queue is closed. A wake() issued while the consumer is not
  /// waiting is latched (the next wait() returns immediately).
  void wait();

  /// Wakes a (possibly future) wait() — used to signal flush/stop.
  void wake();

  /// Closes the queue: blocked and future producers fail fast, and
  /// wait() no longer blocks. Queued chunks stay poppable.
  void close();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Total chunks ever enqueued / dequeued. `pushed() - popped()` is the
  /// current backlog; flush barriers capture pushed() as a watermark and
  /// wait for popped() to reach it, so a barrier completes even while
  /// producers keep streaming new chunks past it.
  std::uint64_t pushed() const;
  std::uint64_t popped() const;

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_full_;  // producers waiting for room
  CondVar consumer_;  // the worker waiting for chunks
  /// FIFO, front at index 0.
  std::vector<IngestChunk> items_ ESL_GUARDED_BY(mutex_);
  /// Recycled chunk storage.
  std::vector<IngestChunk> pool_ ESL_GUARDED_BY(mutex_);
  std::uint64_t pushed_ ESL_GUARDED_BY(mutex_) = 0;
  std::uint64_t popped_ ESL_GUARDED_BY(mutex_) = 0;
  bool wake_pending_ ESL_GUARDED_BY(mutex_) = false;
  bool closed_ ESL_GUARDED_BY(mutex_) = false;
};

}  // namespace esl::engine
