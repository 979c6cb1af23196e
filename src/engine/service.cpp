#include "engine/service.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "engine/model_registry.hpp"

namespace esl::engine {

namespace {

/// splitmix64 — strong mixer so sequential or structured routing keys
/// (patient numbers, device serials) still spread evenly across shards.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void DetectionService::Collector::on_detections(
    std::span<const Detection> detections) {
  MutexLock lock(mutex_);
  buffer_.insert(buffer_.end(), detections.begin(), detections.end());
}

std::size_t DetectionService::Collector::drain(std::vector<Detection>& out) {
  MutexLock lock(mutex_);
  const std::size_t count = buffer_.size();
  for (Detection& d : buffer_) {
    out.push_back(d);
  }
  buffer_.clear();
  return count;
}

void DetectionService::Router::on_detections(
    std::span<const Detection> detections) {
  if (DetectionSink* sink = service_.user_sink_.load(std::memory_order_acquire)) {
    sink->on_detections(detections);
  } else {
    service_.collector_.on_detections(detections);
  }
}

DetectionService::DetectionService(
    std::shared_ptr<const core::RealtimeDetector> fleet_model,
    ServiceConfig config, std::unique_ptr<ExecutionBackend> backend)
    : config_(config),
      backend_(backend != nullptr ? std::move(backend)
                                  : std::make_unique<InlineBackend>()),
      router_(*this),
      shard_sessions_(config.shards) {
  expects(config_.shards >= 1, "DetectionService: shards must be positive");
  expects(config_.shards <= SessionHandle::k_max_shards,
          "DetectionService: shard count exceeds SessionHandle range");
  engines_.reserve(config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    engines_.push_back(std::make_unique<Engine>(fleet_model, config_.engine));
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<std::uint32_t>(i);
    shard->engine = engines_.back().get();
    shards_.push_back(std::move(shard));
  }
  required_channels_ = engines_.front()->extractor().required_channels();
  backend_->start(shards_, router_);
  started_ = true;
}

DetectionService::~DetectionService() {
  try {
    stop();
  } catch (...) {
    // A worker error surfacing during teardown has nowhere to go.
  }
}

void DetectionService::stop() {
  if (started_) {
    started_ = false;
    backend_->stop();
  }
}

Shard& DetectionService::shard_for(SessionHandle handle) {
  expects(handle.shard() < shards_.size(),
          "DetectionService: handle addresses an unknown shard");
  return *shards_[handle.shard()];
}

const Shard& DetectionService::shard_for(SessionHandle handle) const {
  expects(handle.shard() < shards_.size(),
          "DetectionService: handle addresses an unknown shard");
  return *shards_[handle.shard()];
}

SessionHandle DetectionService::create_session() {
  return create_session(config_.engine.session);
}

SessionHandle DetectionService::create_session(const SessionConfig& config) {
  return create_session(
      next_routing_key_.fetch_add(1, std::memory_order_relaxed), config);
}

SessionHandle DetectionService::create_session(std::uint64_t routing_key,
                                               const SessionConfig& config) {
  // Engine::add_session validates the config (InvalidArgument on bad
  // geometry) before anything is created on the shard, and the announce
  // runs after the Engine accepted it, so a backend that mirrors
  // sessions remotely never sees a config the local validation
  // rejected. The shard mutex is held across the announce: a failed
  // mirror pops the slot before any concurrent create lands on this
  // shard, and the session count publishes only once both sides agree
  // the session exists — a throwing create_session leaves no local-only
  // session behind.
  const auto shard_index =
      static_cast<std::uint32_t>(mix64(routing_key) % shards_.size());
  Shard& shard = *shards_[shard_index];
  MutexLock lock(shard.mutex);
  const std::uint64_t local = shard.engine->add_session(config);
  try {
    backend_->on_session_created(shard_index, local, routing_key, config);
  } catch (...) {
    shard.engine->pop_session(local);
    throw;
  }
  // Published under the shard mutex: concurrent creates on one shard
  // must not let a stale (smaller) count overwrite a newer one.
  shard_sessions_[shard_index].store(local + 1, std::memory_order_release);
  return SessionHandle::pack(shard_index, local);
}

std::size_t DetectionService::session_count() const {
  std::size_t total = 0;
  for (const auto& count : shard_sessions_) {
    total += count.load(std::memory_order_acquire);
  }
  return total;
}

void DetectionService::ingest(SessionHandle handle,
                              const std::vector<std::span<const Real>>& chunk) {
  Shard& shard = shard_for(handle);
  expects(handle.local_id() <
              shard_sessions_[handle.shard()].load(std::memory_order_acquire),
          "DetectionService::ingest: unknown session");
  // Validate the chunk shape on the caller's thread so a malformed chunk
  // fails here, not on a shard worker.
  expects(chunk.size() >= required_channels_,
          "DetectionService::ingest: too few channels");
  const std::size_t length = chunk.empty() ? 0 : chunk.front().size();
  for (const auto& channel : chunk) {
    expects(channel.size() == length,
            "DetectionService::ingest: channel chunk lengths differ");
  }
  backend_->ingest(shard, handle.local_id(), chunk);
}

void DetectionService::flush() { backend_->flush(); }

void DetectionService::flush_sessions_async(
    std::span<const SessionHandle> handles, std::function<void()> done) {
  std::vector<std::uint32_t> shards;
  collect_shards(handles, shards);
  if (shards.empty()) {
    if (done) {
      done();
    }
    return;
  }
  backend_->flush_shards_async(shards, std::move(done));
}

void DetectionService::collect_shards(std::span<const SessionHandle> handles,
                                      std::vector<std::uint32_t>& out) const {
  for (const SessionHandle handle : handles) {
    expects(handle.shard() < shards_.size(),
            "DetectionService: handle addresses an unknown shard");
    const std::uint32_t shard = handle.shard();
    // Linear dedupe: shard counts are small (≤ cores), so this beats a
    // set allocation on the flush path.
    if (std::find(out.begin(), out.end(), shard) == out.end()) {
      out.push_back(shard);
    }
  }
}

void DetectionService::close_session(SessionHandle handle) {
  Shard& shard = shard_for(handle);
  expects(handle.local_id() <
              shard_sessions_[handle.shard()].load(std::memory_order_acquire),
          "DetectionService::close_session: unknown session");
  backend_->close_session(shard, handle.local_id());
}

std::size_t DetectionService::drain(std::vector<Detection>& out) {
  return collector_.drain(out);
}

void DetectionService::set_detection_sink(DetectionSink* sink) {
  user_sink_.store(sink, std::memory_order_release);
}

void DetectionService::set_alarm_hook(
    std::function<void(const Detection&)> hook) {
  auto shared = std::make_shared<std::function<void(const Detection&)>>(
      std::move(hook));
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    const std::uint32_t index = shard->index;
    shard->engine->set_alarm_hook([shared, index](const Detection& d) {
      Detection translated = d;
      translated.session_id =
          SessionHandle::pack(index, d.session_id).value;
      (*shared)(translated);
    });
  }
}

void DetectionService::set_label_hook(
    std::function<void(SessionHandle, const signal::Interval&)> hook) {
  auto shared = std::make_shared<
      std::function<void(SessionHandle, const signal::Interval&)>>(
      std::move(hook));
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    const std::uint32_t index = shard->index;
    shard->engine->set_label_hook(
        [shared, index](std::uint64_t local_id, const signal::Interval& label) {
          (*shared)(SessionHandle::pack(index, local_id), label);
        });
  }
}

void DetectionService::attach_self_learning(
    SessionHandle handle, const core::SelfLearningConfig& config) {
  Shard& shard = shard_for(handle);
  MutexLock lock(shard.mutex);
  shard.engine->attach_self_learning(handle.local_id(), config);
}

bool DetectionService::has_self_learning(SessionHandle handle) const {
  const Shard& shard = shard_for(handle);
  MutexLock lock(shard.mutex);
  return shard.engine->has_self_learning(handle.local_id());
}

signal::Interval DetectionService::patient_trigger(SessionHandle handle) {
  Shard& shard = shard_for(handle);
  MutexLock lock(shard.mutex);
  return shard.engine->patient_trigger(handle.local_id());
}

void DetectionService::swap_model(
    SessionHandle handle, std::shared_ptr<const ml::InferenceModel> model) {
  Shard& shard = shard_for(handle);
  // The shard lock serializes the swap with the shard's ingest/poll
  // cycle: the worker is either before the poll (new model classifies
  // this round) or past it (new model from the next round) — never
  // mid-batch with a dangling model.
  MutexLock lock(shard.mutex);
  shard.engine->swap_model(handle.local_id(), std::move(model));
}

void DetectionService::swap_model(SessionHandle handle,
                                  const ModelRegistry& registry,
                                  std::string_view patient_key) {
  // Map (or reuse the cached mapping) outside the shard lock — opening
  // may hit the filesystem — then deploy with the plain swap.
  swap_model(handle, registry.open(patient_key));
}

std::shared_ptr<const ml::InferenceModel> DetectionService::session_model(
    SessionHandle handle) const {
  const Shard& shard = shard_for(handle);
  MutexLock lock(shard.mutex);
  return shard.engine->session_model(handle.local_id());
}

std::size_t DetectionService::session_alarms(SessionHandle handle) const {
  const Shard& shard = shard_for(handle);
  MutexLock lock(shard.mutex);
  return shard.engine->session(handle.local_id()).alarms();
}

const PatientSession& DetectionService::session(SessionHandle handle) const {
  const Shard& shard = shard_for(handle);
  MutexLock lock(shard.mutex);
  return shard.engine->session(handle.local_id());
}

EngineStats DetectionService::stats() const {
  EngineStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    const EngineStats& s = shard->engine->stats();
    total.windows_classified += s.windows_classified;
    total.forest_windows += s.forest_windows;
    total.screened_windows += s.screened_windows;
    total.unmodeled_windows += s.unmodeled_windows;
    total.alarms += s.alarms;
    total.polls += s.polls;
    total.batches += s.batches;
  }
  return total;
}

}  // namespace esl::engine
