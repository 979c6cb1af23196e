#include "engine/backend.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/error.hpp"

namespace esl::engine {

namespace {

/// Rewrites engine-local detection ids into packed SessionHandle values.
void translate_ids(std::uint32_t shard_index,
                   std::vector<Detection>& detections) {
  for (Detection& d : detections) {
    d.session_id = SessionHandle::pack(shard_index, d.session_id).value;
  }
}

}  // namespace

void ExecutionBackend::close_session(Shard& shard, std::uint64_t local_id) {
  MutexLock lock(shard.mutex);
  shard.engine->remove_session(local_id);
}

// ---------------------------------------------------------------- inline

void InlineBackend::start(std::vector<std::unique_ptr<Shard>>& shards,
                          DetectionSink& sink) {
  shards_ = &shards;
  sink_ = &sink;
}

void InlineBackend::stop() {
  shards_ = nullptr;
  sink_ = nullptr;
}

void InlineBackend::ingest(Shard& shard, std::uint64_t local_id,
                           const std::vector<std::span<const Real>>& chunk) {
  MutexLock lock(shard.mutex);
  shard.engine->ingest(local_id, chunk);
}

void InlineBackend::poll_shard(const Shard& shard) {
  scratch_.clear();
  {
    MutexLock lock(shard.mutex);
    shard.engine->poll_into(scratch_);
  }
  translate_ids(shard.index, scratch_);
  if (!scratch_.empty()) {
    sink_->on_detections(scratch_);
  }
}

void InlineBackend::flush() {
  ensures(shards_ != nullptr, "InlineBackend: flush before start");
  for (const auto& shard : *shards_) {
    poll_shard(*shard);
  }
}

void InlineBackend::flush_shards_async(
    std::span<const std::uint32_t> shard_indices,
    std::function<void()> done) {
  ensures(shards_ != nullptr, "InlineBackend: flush before start");
  for (const std::uint32_t index : shard_indices) {
    poll_shard(*(*shards_)[index]);
  }
  if (done) {
    done();
  }
}

// ------------------------------------------------------------ threadpool

ThreadPoolBackend::ThreadPoolBackend(ThreadPoolConfig config)
    : config_(config) {
  expects(config_.queue_capacity >= 1,
          "ThreadPoolBackend: queue_capacity must be positive");
}

ThreadPoolBackend::~ThreadPoolBackend() {
  try {
    stop();
  } catch (...) {
    // A pending worker error surfacing in the destructor has nowhere to
    // go; stop() already joined every thread before rethrowing it.
  }
}

void ThreadPoolBackend::start(std::vector<std::unique_ptr<Shard>>& shards,
                              DetectionSink& sink) {
  ensures(workers_.empty(), "ThreadPoolBackend: started twice");
  shards_ = &shards;
  sink_ = &sink;
  workers_.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    workers_.push_back(std::make_unique<Worker>(config_.queue_capacity));
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { run_worker(i); });
  }
}

void ThreadPoolBackend::stop() {
  if (workers_.empty()) {
    return;
  }
  // Order matters: drain in-flight chunks, close every queue (a worker
  // runs what is still queued, then exits), join every worker, and only
  // then surface any captured worker error — stop() must never leave
  // threads running by throwing early.
  drain();
  for (const auto& worker : workers_) {
    worker->queue.close();
  }
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
  workers_.clear();
  shards_ = nullptr;
  sink_ = nullptr;
  rethrow_worker_error();
}

void ThreadPoolBackend::ingest(
    Shard& shard, std::uint64_t local_id,
    const std::vector<std::span<const Real>>& chunk) {
  ensures(shard.index < workers_.size(),
          "ThreadPoolBackend: ingest before start");
  workers_[shard.index]->queue.push(local_id, chunk);
}

void ThreadPoolBackend::flush() {
  drain();
  rethrow_worker_error();
}

void ThreadPoolBackend::flush_shards_async(
    std::span<const std::uint32_t> shard_indices,
    std::function<void()> done) {
  // Surface any captured worker error on the caller's thread *before*
  // pushing markers: `done` runs on a worker, which has no caller to
  // throw to.
  rethrow_worker_error();
  push_markers(shard_indices, std::move(done));
}

void ThreadPoolBackend::push_markers(
    std::span<const std::uint32_t> shard_indices,
    std::function<void()> done) {
  for (const std::uint32_t index : shard_indices) {
    ensures(index < workers_.size(), "ThreadPoolBackend: bad shard index");
  }
  if (shard_indices.empty()) {
    if (done) {
      done();
    }
    return;
  }
  struct Countdown {
    std::atomic<std::size_t> remaining;
    std::function<void()> done;
  };
  auto countdown =
      std::make_shared<Countdown>(shard_indices.size(), std::move(done));
  const std::function<void()> arrive = [countdown] {
    if (countdown->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        countdown->done) {
      countdown->done();
    }
  };
  for (const std::uint32_t index : shard_indices) {
    if (!workers_[index]->queue.push_marker(arrive)) {
      arrive();  // closed queue: its worker is stopping, so run it here
    }
  }
}

void ThreadPoolBackend::drain() {
  struct Latch {
    Mutex mutex;
    CondVar opened;
    bool open ESL_GUARDED_BY(mutex) = false;
  };
  // Shared with the completion, which may still be notifying on a
  // worker thread when this waiter wakes and returns.
  auto latch = std::make_shared<Latch>();
  std::vector<std::uint32_t> all(workers_.size());
  std::iota(all.begin(), all.end(), 0u);
  push_markers(all, [latch] {
    {
      MutexLock lock(latch->mutex);
      latch->open = true;
    }
    latch->opened.notify_all();
  });
  MutexLock lock(latch->mutex);
  while (!latch->open) {
    latch->opened.wait(lock);
  }
}

void ThreadPoolBackend::rethrow_worker_error() {
  MutexLock lock(error_mutex_);
  if (worker_error_ != nullptr) {
    std::exception_ptr error = worker_error_;
    worker_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPoolBackend::run_worker(std::size_t index) {
  Shard& shard = *(*shards_)[index];
  IngestQueue& queue = workers_[index]->queue;
  std::vector<IngestChunk> entries;
  std::vector<Detection> detections;
  std::vector<std::span<const Real>> views;
  const auto capture_error = [this] {
    MutexLock lock(error_mutex_);
    if (worker_error_ == nullptr) {
      worker_error_ = std::current_exception();
    }
  };

  while (queue.wait()) {
    queue.pop_all(entries);
    const bool has_chunks =
        std::any_of(entries.begin(), entries.end(),
                    [](const IngestChunk& entry) { return !entry.on_reached; });
    if (has_chunks) {
      try {
        detections.clear();
        {
          MutexLock lock(shard.mutex);
          for (const IngestChunk& chunk : entries) {
            if (chunk.on_reached) {
              continue;  // a marker
            }
            views.clear();
            for (const RealVector& channel : chunk.channels) {
              views.emplace_back(channel);
            }
            shard.engine->ingest(chunk.session_id, views);
          }
          shard.engine->poll_into(detections);
        }
        translate_ids(shard.index, detections);
        if (!detections.empty()) {
          sink_->on_detections(detections);
        }
      } catch (...) {
        capture_error();
      }
    }
    // Every chunk ahead of a marker in this batch (or in an earlier one)
    // has been delivered, or its error captured: complete the markers.
    // A throwing completion must neither end the worker nor skip the
    // markers behind it.
    for (const IngestChunk& entry : entries) {
      if (entry.on_reached) {
        try {
          entry.on_reached();
        } catch (...) {
          capture_error();
        }
      }
    }
    queue.recycle(entries);
  }
}

}  // namespace esl::engine
