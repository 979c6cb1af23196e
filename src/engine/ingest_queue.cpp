#include "engine/ingest_queue.hpp"

#include "common/error.hpp"

namespace esl::engine {

IngestQueue::IngestQueue(std::size_t capacity) : capacity_(capacity) {
  expects(capacity >= 1, "IngestQueue: capacity must be positive");
  items_.reserve(capacity);
  pool_.reserve(capacity);
}

bool IngestQueue::push(std::uint64_t session_id,
                       const std::vector<std::span<const Real>>& chunk) {
  IngestChunk slot;
  {
    MutexLock lock(mutex_);
    while (items_.size() >= capacity_ && !closed_) {
      not_full_.wait(lock);
    }
    if (closed_) {
      return false;
    }
    if (!pool_.empty()) {
      slot = std::move(pool_.back());
      pool_.pop_back();
    }
    // Copy the spans into owned storage while holding the lock: the copy
    // is bounded (one chunk) and keeps commit order == FIFO order across
    // producers, which per-session parity relies on.
    slot.session_id = session_id;
    slot.channels.resize(chunk.size());
    for (std::size_t c = 0; c < chunk.size(); ++c) {
      slot.channels[c].assign(chunk[c].begin(), chunk[c].end());
    }
    items_.push_back(std::move(slot));
    ++pushed_;
  }
  consumer_.notify_one();
  return true;
}

std::size_t IngestQueue::pop_all(std::vector<IngestChunk>& out) {
  MutexLock lock(mutex_);
  const std::size_t moved = items_.size();
  for (IngestChunk& item : items_) {
    out.push_back(std::move(item));
  }
  items_.clear();
  popped_ += moved;
  if (moved > 0) {
    not_full_.notify_all();
  }
  return moved;
}

void IngestQueue::recycle(std::vector<IngestChunk>& consumed) {
  MutexLock lock(mutex_);
  for (IngestChunk& chunk : consumed) {
    if (pool_.size() >= capacity_) {
      break;  // keep the pool bounded; the rest just deallocates
    }
    pool_.push_back(std::move(chunk));
  }
  consumed.clear();
}

void IngestQueue::wait() {
  MutexLock lock(mutex_);
  while (items_.empty() && !wake_pending_ && !closed_) {
    consumer_.wait(lock);
  }
  wake_pending_ = false;
}

void IngestQueue::wake() {
  {
    MutexLock lock(mutex_);
    wake_pending_ = true;
  }
  consumer_.notify_all();
}

void IngestQueue::close() {
  {
    MutexLock lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  consumer_.notify_all();
}

std::size_t IngestQueue::size() const {
  MutexLock lock(mutex_);
  return items_.size();
}

std::uint64_t IngestQueue::pushed() const {
  MutexLock lock(mutex_);
  return pushed_;
}

std::uint64_t IngestQueue::popped() const {
  MutexLock lock(mutex_);
  return popped_;
}

}  // namespace esl::engine
