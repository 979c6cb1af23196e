// ModelRegistry suites: path/cache/LRU/staleness semantics over a
// directory of artifacts, and the fleet redeploy story end to end —
// DetectionService::swap_model(handle, registry.open(key)) deploying
// mapped models into live sessions, including a trainer replacing an
// artifact file (atomic rename) while worker threads keep ingesting.
// The parity contract is the service suite's: mapped models are
// bit-identical to their in-memory sources, so any interleaving of
// swap-from-disk deploys must reproduce the single-Engine reference
// exactly. TSan runs these (ctest regex `engine\.`) to prove the
// registry's mutex discipline and the swap path race nothing.
#include "engine/model_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include <unistd.h>

#include "common/error.hpp"
#include "engine/service.hpp"
#include "ml/artifact.hpp"
#include "ml/dataset.hpp"
#include "sim/cohort.hpp"

namespace esl::engine {
namespace {

// ------------------------------------------------ registry unit suites

ml::Dataset noisy(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data;
  for (std::size_t i = 0; i < size; ++i) {
    RealVector row;
    for (std::size_t f = 0; f < 6; ++f) {
      row.push_back(std::round(rng.normal() * 4.0) / 4.0);
    }
    data.push_back(row, rng.uniform_index(2) == 0 ? 0 : 1);
  }
  return data;
}

/// Removes the scratch directories this process made when it exits.
struct ScratchDirs {
  std::vector<std::string> paths;
  ~ScratchDirs() {
    for (const std::string& path : paths) {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  }
};

/// A fresh registry directory under the test temp root, unique to this
/// process: gtest_discover_tests runs every test as its own process, so
/// under `ctest -j` a shared name would let one test's remove_all delete
/// the files another has just saved.
std::string scratch_dir(const std::string& name) {
  static ScratchDirs created;
  const std::string dir =
      ::testing::TempDir() + name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  created.paths.push_back(dir);
  return dir;
}

/// Saves a small forest (tree_count controls the file size, so two
/// saves with different counts are distinguishable by length alone —
/// no mtime-granularity dependence in replace tests).
void save_small_artifact(const std::string& path, std::size_t tree_count,
                         std::uint64_t seed) {
  ml::ForestConfig config;
  config.tree_count = tree_count;
  ml::RandomForest forest(config);
  forest.fit(noisy(120, seed), seed + 1);
  ml::save_artifact(path, ml::CompiledForest(forest));
}

TEST(ModelRegistryConfig, ValidateAcceptsDefaultsAndRejectsBadFields) {
  RegistryConfig config;
  config.directory = "/tmp/models";
  EXPECT_NO_THROW(validate(config));
  config.extension = "";  // extensionless keys are allowed
  EXPECT_NO_THROW(validate(config));

  RegistryConfig empty_dir;
  EXPECT_THROW(validate(empty_dir), InvalidArgument);
  EXPECT_THROW(ModelRegistry{empty_dir}, InvalidArgument);

  RegistryConfig zero_capacity;
  zero_capacity.directory = "/tmp/models";
  zero_capacity.capacity = 0;
  EXPECT_THROW(validate(zero_capacity), InvalidArgument);

  RegistryConfig dotless;
  dotless.directory = "/tmp/models";
  dotless.extension = "eslm";
  EXPECT_THROW(validate(dotless), InvalidArgument);
}

TEST(ModelRegistry, ArtifactPathJoinsDirectoryKeyAndExtension) {
  RegistryConfig config;
  config.directory = "/srv/models";
  EXPECT_EQ(ModelRegistry(config).artifact_path("chb04"),
            "/srv/models/chb04.eslm");
  config.directory = "/srv/models/";  // trailing separator not doubled
  EXPECT_EQ(ModelRegistry(config).artifact_path("chb04"),
            "/srv/models/chb04.eslm");
}

TEST(ModelRegistry, OpenThrowsForMissingKeysAndContainsTracksDisk) {
  RegistryConfig config;
  config.directory = scratch_dir("registry_missing");
  const ModelRegistry registry(config);
  EXPECT_THROW(registry.open("chb04"), DataError);
  EXPECT_EQ(registry.cached_count(), 0u);

  save_small_artifact(registry.artifact_path("chb04"), 4, 11);
  EXPECT_NE(registry.open("chb04"), nullptr);

  // The file vanishing makes open() throw again, cached entry or not.
  ASSERT_EQ(std::remove(registry.artifact_path("chb04").c_str()), 0);
  EXPECT_THROW(registry.open("chb04"), DataError);
}

TEST(ModelRegistry, OpenCachesTheMappingUntilTheFileIsReplaced) {
  RegistryConfig config;
  config.directory = scratch_dir("registry_cache");
  const ModelRegistry registry(config);
  save_small_artifact(registry.artifact_path("chb04"), 4, 21);

  const auto first = registry.open("chb04");
  EXPECT_EQ(registry.open("chb04"), first);  // same mapping, not a remap
  EXPECT_EQ(registry.cached_count(), 1u);

  // Trainer redeploys over the same path (atomic rename inside
  // save_artifact). open() notices the changed file identity and maps
  // the replacement in place of the cached entry.
  save_small_artifact(registry.artifact_path("chb04"), 8, 22);
  const auto second = registry.open("chb04");
  EXPECT_EQ(registry.cached_count(), 1u);
  ASSERT_NE(second, first);
  EXPECT_STREQ(second->name(), "mapped");
  EXPECT_EQ(second->tree_count(), 8u);
  // The replaced mapping stays alive (and servable) for holders.
  EXPECT_EQ(first->tree_count(), 4u);
}

TEST(ModelRegistry, OpenAloneAlsoSeesReplacedFilesWithoutRefresh) {
  RegistryConfig config;
  config.directory = scratch_dir("registry_stale_open");
  const ModelRegistry registry(config);
  save_small_artifact(registry.artifact_path("chb04"), 4, 31);
  const auto first = registry.open("chb04");
  save_small_artifact(registry.artifact_path("chb04"), 8, 32);
  // open() re-stats per call, so a stale cache entry is bypassed when
  // the file identity changed.
  const auto second = registry.open("chb04");
  EXPECT_NE(second, first);
  EXPECT_EQ(second->tree_count(), 8u);
}

TEST(ModelRegistry, EvictsTheLeastRecentlyUsedMappingBeyondCapacity) {
  RegistryConfig config;
  config.directory = scratch_dir("registry_lru");
  config.capacity = 2;
  const ModelRegistry registry(config);
  for (const char* key : {"a", "b", "c"}) {
    save_small_artifact(registry.artifact_path(key), 4,
                        41 + static_cast<std::uint64_t>(key[0]));
  }

  const auto model_a = registry.open("a");
  const auto model_b = registry.open("b");
  (void)registry.open("a");  // bump a: b is now least recently used
  (void)registry.open("c");  // evicts b
  EXPECT_EQ(registry.cached_count(), 2u);
  EXPECT_NE(registry.open("a"), nullptr);  // still cached (same mapping)
  EXPECT_EQ(registry.open("a"), model_a);

  // Re-opening b remaps the file — the registry dropped its reference —
  // while the evicted mapping keeps serving for anyone still holding it.
  EXPECT_NE(registry.open("b"), model_b);
  EXPECT_EQ(model_b->tree_count(), 4u);
}

// ------------------------------------ service swap-from-disk suites

std::vector<std::span<const Real>> chunk_views(const signal::EegRecord& record,
                                               std::size_t offset,
                                               std::size_t count) {
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(
        std::span<const Real>(record.channel(c).samples).subspan(offset, count));
  }
  return views;
}

struct WindowOutcome {
  std::size_t window_index;
  Seconds window_start_s;
  int label;
  bool screened_out;
  bool alarm;

  friend bool operator==(const WindowOutcome&, const WindowOutcome&) = default;
};

WindowOutcome outcome_of(const Detection& d) {
  return {d.window_index, d.window_start_s, d.label, d.screened_out, d.alarm};
}

/// Fleet detector + workload, as in test_service.cpp, plus a registry
/// directory seeded with the fleet model's artifact under key "fleet".
class RegistryServiceTest : public ::testing::Test {
 protected:
  static constexpr std::size_t k_sessions = 4;
  static constexpr Seconds k_stream_seconds = 120.0;
  static constexpr std::size_t k_chunk = 1600;  // 6.25 s, misaligned to hop

  static void SetUpTestSuite() {
    simulator_ = new sim::CohortSimulator();
    const auto events = simulator_->events_for_patient(4);
    train_record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[0], 0, 500.0, 600.0));
    seizure_record_ = new signal::EegRecord(
        simulator_->synthesize(events[1], sim::RecordSpec{120.0, 50.0}, 1));
    background_record_ = new signal::EegRecord(
        simulator_->synthesize_background_record(4, 120.0, 2));

    train_set_ = new ml::Dataset(core::build_window_dataset(
        *train_record_, train_record_->seizures()));
    Rng rng(1);
    auto fitted = std::make_shared<core::RealtimeDetector>();
    fitted->fit(ml::balance_classes(*train_set_, rng), 7);
    fleet_ = new std::shared_ptr<const core::RealtimeDetector>(fitted);

    directory_ = new std::string(scratch_dir("registry_service"));
    ml::save_artifact(*directory_ + "/fleet.eslm", *fitted->compile());
  }
  static void TearDownTestSuite() {
    delete directory_;
    delete fleet_;
    delete train_set_;
    delete background_record_;
    delete seizure_record_;
    delete train_record_;
    delete simulator_;
    directory_ = nullptr;
    fleet_ = nullptr;
    train_set_ = nullptr;
    background_record_ = nullptr;
    seizure_record_ = nullptr;
    train_record_ = nullptr;
    simulator_ = nullptr;
  }

  static const signal::EegRecord& record_for(std::size_t s) {
    return s % 2 == 0 ? *seizure_record_ : *background_record_;
  }

  static std::size_t stream_samples(const signal::EegRecord& record) {
    return std::min(record.length_samples(),
                    static_cast<std::size_t>(k_stream_seconds *
                                             record.sample_rate_hz()));
  }

  static RegistryConfig registry_config() {
    RegistryConfig config;
    config.directory = *directory_;
    return config;
  }

  /// Ground truth: one Engine, no swaps (every deployed model is
  /// bit-identical to the fleet model, so swaps must not show).
  static std::vector<std::vector<WindowOutcome>> reference_outcomes() {
    Engine engine(*fleet_);
    for (std::size_t s = 0; s < k_sessions; ++s) {
      engine.add_session();
    }
    std::vector<std::vector<WindowOutcome>> outcomes(k_sessions);
    const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t s = 0; s < k_sessions; ++s) {
        const signal::EegRecord& record = record_for(s);
        if ((round + 1) * k_chunk <= stream_samples(record)) {
          engine.ingest(s, chunk_views(record, round * k_chunk, k_chunk));
        }
      }
      std::vector<Detection> detections;
      engine.poll_into(detections);
      for (const Detection& d : detections) {
        outcomes[d.session_id].push_back(outcome_of(d));
      }
    }
    return outcomes;
  }

  static sim::CohortSimulator* simulator_;
  static signal::EegRecord* train_record_;
  static signal::EegRecord* seizure_record_;
  static signal::EegRecord* background_record_;
  static ml::Dataset* train_set_;
  static std::shared_ptr<const core::RealtimeDetector>* fleet_;
  static std::string* directory_;
};

sim::CohortSimulator* RegistryServiceTest::simulator_ = nullptr;
signal::EegRecord* RegistryServiceTest::train_record_ = nullptr;
signal::EegRecord* RegistryServiceTest::seizure_record_ = nullptr;
signal::EegRecord* RegistryServiceTest::background_record_ = nullptr;
ml::Dataset* RegistryServiceTest::train_set_ = nullptr;
std::shared_ptr<const core::RealtimeDetector>* RegistryServiceTest::fleet_ =
    nullptr;
std::string* RegistryServiceTest::directory_ = nullptr;

TEST_F(RegistryServiceTest, SwapFromRegistryDeploysTheMappedForest) {
  const ModelRegistry registry(registry_config());
  DetectionService service(*fleet_);
  const SessionHandle handle = service.create_session();
  service.swap_model(handle, registry.open("fleet"));
  EXPECT_STREQ(service.session_model(handle)->name(), "mapped");
  EXPECT_EQ(service.session_model(handle), registry.open("fleet"));

  EXPECT_THROW(service.swap_model(handle, registry.open("unknown-patient")),
               DataError);
  // The failed swap left the previous deploy in place.
  EXPECT_STREQ(service.session_model(handle)->name(), "mapped");
}

TEST_F(RegistryServiceTest, SwapFromDiskAtABoundaryMatchesTheReference) {
  // Deterministic mid-stream redeploy from disk: every session flips to
  // the mapped fleet artifact at a known window boundary. Because the
  // mapped model is bit-identical to the in-memory fleet model, the run
  // must equal the no-swap single-Engine reference exactly.
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();
  const ModelRegistry registry(registry_config());

  const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
  const std::size_t swap_round = rounds / 2;
  ServiceConfig config;
  config.shards = 2;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());
  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    handles.push_back(service.create_session(s, SessionConfig{}));
  }

  std::map<std::uint64_t, std::vector<WindowOutcome>> outcomes;
  std::vector<Detection> drained;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round == swap_round) {
      for (const SessionHandle& handle : handles) {
        service.swap_model(handle, registry.open("fleet"));
      }
    }
    for (std::size_t s = 0; s < k_sessions; ++s) {
      const signal::EegRecord& record = record_for(s);
      if ((round + 1) * k_chunk <= stream_samples(record)) {
        service.ingest(handles[s],
                       chunk_views(record, round * k_chunk, k_chunk));
      }
    }
    service.flush();
    drained.clear();
    service.drain(drained);
    for (const Detection& d : drained) {
      outcomes[d.session_id].push_back(outcome_of(d));
    }
  }
  for (const SessionHandle& handle : handles) {
    EXPECT_STREQ(service.session_model(handle)->name(), "mapped");
  }
  for (std::size_t s = 0; s < k_sessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    const auto it = outcomes.find(handles[s].value);
    ASSERT_NE(it, outcomes.end());
    EXPECT_EQ(it->second, reference[s]);
  }
}

TEST_F(RegistryServiceTest, HotSwapFromDiskUnderContinuousIngestAndRedeploy) {
  // The fleet redeploy headline: while worker threads ingest, a swapper
  // thread relentlessly deploys from disk (through two registries with
  // independent caches over the same directory, and back to the fleet
  // model), and a trainer thread keeps replacing the artifact file
  // (atomic rename), which every open() re-stats.
  // Every artifact written holds the same fleet forest, so whatever
  // interleaving of saves, remaps, and swaps lands, the detections must
  // equal the plain single-Engine reference — and TSan proves the
  // save/rename/stat/mmap/swap machinery races nothing.
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();

  ServiceConfig config;
  config.shards = 2;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());
  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    handles.push_back(service.create_session(s, SessionConfig{}));
  }

  const ModelRegistry registry(registry_config());
  const ModelRegistry other_registry(registry_config());
  const auto fleet_artifact = (*fleet_)->compile();

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    std::size_t next = 0;
    while (!stop.load()) {
      for (const SessionHandle& handle : handles) {
        switch (next++ % 3) {
          case 0:
            service.swap_model(handle, registry.open("fleet"));
            break;
          case 1:
            service.swap_model(handle, other_registry.open("fleet"));
            break;
          default:
            service.swap_model(handle, nullptr);
            break;
        }
      }
    }
  });
  std::thread trainer([&] {
    while (!stop.load()) {
      ml::save_artifact(*directory_ + "/fleet.eslm", *fleet_artifact);
      std::this_thread::yield();
    }
  });

  const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t s = 0; s < k_sessions; ++s) {
      const signal::EegRecord& record = record_for(s);
      if ((round + 1) * k_chunk <= stream_samples(record)) {
        service.ingest(handles[s],
                       chunk_views(record, round * k_chunk, k_chunk));
      }
    }
  }
  stop.store(true);
  swapper.join();
  trainer.join();
  service.flush();

  std::vector<Detection> drained;
  service.drain(drained);
  std::map<std::uint64_t, std::vector<WindowOutcome>> outcomes;
  for (const Detection& d : drained) {
    outcomes[d.session_id].push_back(outcome_of(d));
  }
  for (std::size_t s = 0; s < k_sessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    const auto it = outcomes.find(handles[s].value);
    ASSERT_NE(it, outcomes.end());
    EXPECT_EQ(it->second, reference[s]);
  }
}

}  // namespace
}  // namespace esl::engine
