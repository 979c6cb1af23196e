// On-disk registry of per-patient model artifacts.
//
// The fleet story for personalized models: a trainer process fits a
// patient's detector, compiles it, and save_artifact()s it into a
// directory as <patient_key>.eslm; serving processes open a
// ModelRegistry over that directory and deploy models from disk —
// registry.open(key) mmaps the artifact (ml/artifact.hpp) and hands back
// a shared InferenceModel that DetectionService::swap_model can push
// into a live session with no flush or stream pause. Training and
// serving never share a process; the artifact file is the interface.
//
// Caching: open() memoizes mappings per key (LRU, bounded by
// RegistryConfig::capacity), so a fleet of sessions sharing one
// patient's model maps the file once. Eviction only drops the
// registry's reference — sessions still holding the model keep the
// mapping (and therefore the mapped pages) alive until they drop it.
//
// Redeploys: a trainer replaces an artifact by save_artifact() over the
// same path (atomic rename). open() re-stats the file on every call, so
// the next open(key) after a replace maps the new file; live sessions
// keep serving the old mapping until swap_model hands them the new
// model. All methods are thread-safe (one internal mutex; the
// expensive mmap itself is cheap — O(header)).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/annotations.hpp"
#include "ml/artifact.hpp"
#include "ml/inference_model.hpp"

namespace esl::engine {

struct RegistryConfig {
  /// Directory holding one artifact file per patient key.
  std::string directory;
  /// Max cached mappings; least-recently-opened entries are dropped
  /// beyond this (their mappings survive in any session still holding
  /// the model).
  std::size_t capacity = 64;
  /// Artifact file suffix: <directory>/<key><extension>.
  std::string extension = ".eslm";
};
/// InvalidArgument on empty directory, zero capacity, or an extension
/// that is not "" and does not start with '.'.
void validate(const RegistryConfig& config);

class ModelRegistry {
 public:
  /// Validates `config`; the directory itself is only touched by open()
  /// (it may be created after the registry, or populated lazily).
  explicit ModelRegistry(RegistryConfig config);

  /// The deployable model for `patient_key`: the cached mapping when the
  /// backing file is unchanged, a fresh mmap otherwise. Throws DataError
  /// when no artifact exists for the key, InvalidArgument when the file
  /// is corrupt/truncated/foreign (see validate(ArtifactHeader)).
  /// Logically const: only the internal cache mutates.
  std::shared_ptr<const ml::InferenceModel> open(
      std::string_view patient_key) const;

  /// Cached mappings right now (<= capacity).
  std::size_t cached_count() const;

  /// The path open(key) would map.
  std::string artifact_path(std::string_view patient_key) const;

  const RegistryConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const ml::InferenceModel> model;
    /// Identity of the mapped file, for staleness checks: a replace is
    /// a rename, so (size, mtime) change together with the content.
    std::uint64_t file_bytes = 0;
    std::int64_t mtime_ns = 0;
    std::uint64_t last_used = 0;
  };

  /// stat() the file; false when it does not exist.
  bool stat_artifact(const std::string& path, std::uint64_t* file_bytes,
                     std::int64_t* mtime_ns) const;
  void evict_lru_locked() const ESL_REQUIRES(mutex_);

  RegistryConfig config_;
  mutable Mutex mutex_;
  mutable std::unordered_map<std::string, Entry> cache_
      ESL_GUARDED_BY(mutex_);
  mutable std::uint64_t tick_ ESL_GUARDED_BY(mutex_) = 0;
};

}  // namespace esl::engine
