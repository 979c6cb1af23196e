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
// Flush barriers ride the same FIFO: push_marker() enqueues an entry
// with no samples whose `on_reached` the consumer runs once it has
// delivered every chunk popped with or ahead of it. FIFO order alone
// then makes "ingested before the flush" imply "delivered before the
// completion", however many producers keep streaming behind it.
//
// push()/push_marker() are safe from any number of threads;
// pop_all()/recycle()/wait() belong to the single consumer thread;
// close()/size() are safe from any thread.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/annotations.hpp"
#include "common/types.hpp"

namespace esl::engine {

/// One queue entry: an EEG chunk (an engine-local session id plus an
/// owned copy of the per-channel samples), or a flush marker, which
/// carries only `on_reached`.
struct IngestChunk {
  std::uint64_t session_id = 0;
  std::vector<RealVector> channels;
  /// Set on markers only; the consumer runs it after delivering every
  /// chunk ahead of the marker.
  std::function<void()> on_reached;
};

/// Bounded FIFO of IngestChunks between ingest producers and one shard
/// worker.
class IngestQueue final {
 public:
  /// `capacity` bounds the number of queued entries (>= 1); producers
  /// block in push() while the queue is full.
  explicit IngestQueue(std::size_t capacity);

  /// Copies `chunk` (one span per channel) into owned storage and
  /// enqueues it, blocking while the queue is full. Returns false when
  /// the queue was closed (the chunk is dropped).
  bool push(std::uint64_t session_id,
            const std::vector<std::span<const Real>>& chunk);

  /// Enqueues a flush marker behind every entry already queued. Never
  /// waits for room: a marker may take the queue past its capacity.
  /// Returns false, without keeping `on_reached`, when the queue was
  /// closed; the caller then owns running it.
  bool push_marker(const std::function<void()>& on_reached);

  /// Moves every queued entry onto the back of `out` (consumer side);
  /// returns how many were moved.
  std::size_t pop_all(std::vector<IngestChunk>& out);

  /// Returns consumed chunks' storage to the free pool for reuse by
  /// later pushes (markers are dropped); clears `consumed`. Consumer
  /// side.
  void recycle(std::vector<IngestChunk>& consumed);

  /// Blocks the consumer until the queue is non-empty or closed.
  /// Returns false once the queue is closed and empty: nothing more
  /// will ever arrive.
  bool wait();

  /// Closes the queue: blocked and future pushes fail fast, and wait()
  /// no longer blocks. Queued entries stay poppable.
  void close();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_full_;  // producers waiting for room
  CondVar consumer_;  // the worker waiting for entries
  /// FIFO, front at index 0.
  std::vector<IngestChunk> items_ ESL_GUARDED_BY(mutex_);
  /// Recycled chunk storage.
  std::vector<IngestChunk> pool_ ESL_GUARDED_BY(mutex_);
  bool closed_ ESL_GUARDED_BY(mutex_) = false;
};

}  // namespace esl::engine
