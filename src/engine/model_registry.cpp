#include "engine/model_registry.hpp"

#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/error.hpp"

namespace esl::engine {

namespace fs = std::filesystem;

void validate(const RegistryConfig& config) {
  expects(!config.directory.empty(),
          "RegistryConfig: directory must not be empty");
  expects(config.capacity >= 1, "RegistryConfig: capacity must be >= 1");
  expects(config.extension.empty() || config.extension.front() == '.',
          "RegistryConfig: extension must start with '.'");
}

ModelRegistry::ModelRegistry(RegistryConfig config)
    : config_(std::move(config)) {
  validate(config_);
}

std::string ModelRegistry::artifact_path(std::string_view patient_key) const {
  std::string path;
  path.reserve(config_.directory.size() + 1 + patient_key.size() +
               config_.extension.size());
  path += config_.directory;
  if (!path.empty() && path.back() != '/') {
    path += '/';
  }
  path += patient_key;
  path += config_.extension;
  return path;
}

bool ModelRegistry::stat_artifact(const std::string& path,
                                  std::uint64_t* file_bytes,
                                  std::int64_t* mtime_ns) const {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    return false;
  }
  const auto mtime = fs::last_write_time(path, ec);
  if (ec) {
    return false;
  }
  *file_bytes = static_cast<std::uint64_t>(size);
  *mtime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  mtime.time_since_epoch())
                  .count();
  return true;
}

void ModelRegistry::evict_lru_locked() const {
  while (cache_.size() > config_.capacity) {
    auto lru = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) {
        lru = it;
      }
    }
    // Only the registry's reference is dropped; sessions holding the
    // model keep its mapping alive.
    cache_.erase(lru);
  }
}

std::shared_ptr<const ml::InferenceModel> ModelRegistry::open(
    std::string_view patient_key) const {
  const std::string path = artifact_path(patient_key);
  std::uint64_t file_bytes = 0;
  std::int64_t mtime_ns = 0;
  if (!stat_artifact(path, &file_bytes, &mtime_ns)) {
    throw DataError("ModelRegistry::open: no artifact at " + path);
  }

  MutexLock lock(mutex_);
  const std::string key(patient_key);
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.file_bytes == file_bytes &&
      it->second.mtime_ns == mtime_ns) {
    it->second.last_used = ++tick_;
    return it->second.model;
  }

  // Cold key or replaced file: map the artifact fresh. Mapping copies
  // no array; load_artifact validates them in one O(node_count) pass.
  Entry entry;
  entry.model = ml::load_artifact(path);
  entry.file_bytes = file_bytes;
  entry.mtime_ns = mtime_ns;
  entry.last_used = ++tick_;
  std::shared_ptr<const ml::InferenceModel> model = entry.model;
  cache_[key] = std::move(entry);
  evict_lru_locked();
  return model;
}

std::size_t ModelRegistry::cached_count() const {
  MutexLock lock(mutex_);
  return cache_.size();
}

}  // namespace esl::engine
