#include "engine/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "ml/dataset.hpp"
#include "sim/cohort.hpp"

namespace esl::engine {
namespace {

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

/// Scoped barrier, synchronously: returns once the async flush of
/// `handles`' shards has run its completion.
void flush_sessions_and_wait(DetectionService& service,
                             std::span<const SessionHandle> handles) {
  auto flushed = std::make_shared<std::promise<void>>();
  std::future<void> done = flushed->get_future();
  service.flush_sessions_async(handles, [flushed] { flushed->set_value(); });
  done.wait();
}

/// The per-session observable outcome of one classified window; two
/// streams are "bit-for-bit" equal when these sequences match exactly.
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

/// Shared fixture: fleet detector + a small mixed workload (seizure and
/// background records truncated to `k_stream_seconds` per session).
class ServiceTest : public ::testing::Test {
 protected:
  static constexpr std::size_t k_sessions = 8;
  static constexpr Seconds k_stream_seconds = 180.0;
  static constexpr std::size_t k_chunk = 1600;  // 6.25 s, misaligned to hop

  static void SetUpTestSuite() {
    simulator_ = new sim::CohortSimulator();
    const auto events = simulator_->events_for_patient(4);
    train_record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[0], 0, 500.0, 600.0));
    // Compact record with an early seizure so the whole event fits in
    // the k_stream_seconds slice every test streams.
    seizure_record_ = new signal::EegRecord(
        simulator_->synthesize(events[1], sim::RecordSpec{180.0, 60.0}, 1));
    background_record_ = new signal::EegRecord(
        simulator_->synthesize_background_record(4, 180.0, 2));

    train_set_ = new ml::Dataset(core::build_window_dataset(
        *train_record_, train_record_->seizures()));
    Rng rng(1);
    const ml::Dataset balanced = ml::balance_classes(*train_set_, rng);
    auto fitted = std::make_shared<core::RealtimeDetector>();
    fitted->fit(balanced, 7);
    fleet_ = new std::shared_ptr<const core::RealtimeDetector>(fitted);
  }
  static void TearDownTestSuite() {
    delete fleet_;
    delete train_set_;
    delete background_record_;
    delete seizure_record_;
    delete train_record_;
    delete simulator_;
    fleet_ = nullptr;
    train_set_ = nullptr;
    background_record_ = nullptr;
    seizure_record_ = nullptr;
    train_record_ = nullptr;
    simulator_ = nullptr;
  }

  /// Record for workload session `s` (seizure/background interleaved).
  static const signal::EegRecord& record_for(std::size_t s) {
    return s % 2 == 0 ? *seizure_record_ : *background_record_;
  }

  static std::size_t stream_samples(const signal::EegRecord& record) {
    return std::min(record.length_samples(),
                    static_cast<std::size_t>(k_stream_seconds *
                                             record.sample_rate_hz()));
  }

  /// Engine config used by both the reference engine and the service so
  /// the screened path is exercised end to end.
  static EngineConfig screened_config() {
    EngineConfig config;
    config.screening = ScreeningConfig{
        14, core::fit_stage1_threshold(*train_set_, 0.98, 14)};
    return config;
  }

  /// Ground truth: a single Engine driven chunk/poll per round, exactly
  /// the pre-service semantics. Returns per-local-id outcome sequences.
  static std::vector<std::vector<WindowOutcome>> reference_outcomes() {
    Engine engine(*fleet_, screened_config());
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
      for (const Detection& d : engine.poll()) {
        outcomes[d.session_id].push_back(outcome_of(d));
      }
    }
    return outcomes;
  }

  /// Streams the same workload through a DetectionService and groups the
  /// drained detections by session handle.
  static std::map<std::uint64_t, std::vector<WindowOutcome>> service_outcomes(
      DetectionService& service, const std::vector<SessionHandle>& handles) {
    std::map<std::uint64_t, std::vector<WindowOutcome>> outcomes;
    std::vector<Detection> drained;
    const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
    for (std::size_t round = 0; round < rounds; ++round) {
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
    return outcomes;
  }

  static sim::CohortSimulator* simulator_;
  static signal::EegRecord* train_record_;
  static signal::EegRecord* seizure_record_;
  static signal::EegRecord* background_record_;
  static ml::Dataset* train_set_;
  static std::shared_ptr<const core::RealtimeDetector>* fleet_;
};

sim::CohortSimulator* ServiceTest::simulator_ = nullptr;
signal::EegRecord* ServiceTest::train_record_ = nullptr;
signal::EegRecord* ServiceTest::seizure_record_ = nullptr;
signal::EegRecord* ServiceTest::background_record_ = nullptr;
ml::Dataset* ServiceTest::train_set_ = nullptr;
std::shared_ptr<const core::RealtimeDetector>* ServiceTest::fleet_ = nullptr;

TEST(SessionHandleTest, PackingRoundTripsAndSingleShardIsTransparent) {
  const SessionHandle h = SessionHandle::pack(5, 123);
  EXPECT_EQ(h.shard(), 5u);
  EXPECT_EQ(h.local_id(), 123u);
  // With one shard the handle value *is* the engine-local id, so code
  // written against raw Engine ids migrates mechanically.
  EXPECT_EQ(SessionHandle::pack(0, 42).value, 42u);
  EXPECT_EQ(SessionHandle::pack(0, 42).local_id(), 42u);
}

TEST_F(ServiceTest, ParityEveryBackendAndShardCountMatchesSingleEngine) {
  // The tentpole contract: for the same input streams, any backend at
  // any shard count reproduces the single-threaded Engine's detections
  // bit-for-bit per session (cross-session order is unspecified).
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();

  struct Config {
    const char* backend;
    std::size_t shards;
  };
  const Config configs[] = {
      {"inline", 1}, {"inline", 3}, {"threads", 1},
      {"threads", 2}, {"threads", 4},
  };
  for (const Config& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.backend) + " x " +
                 std::to_string(cfg.shards) + " shards");
    ServiceConfig service_config;
    service_config.shards = cfg.shards;
    service_config.engine = screened_config();
    std::unique_ptr<ExecutionBackend> backend;
    if (std::string(cfg.backend) == "threads") {
      backend = std::make_unique<ThreadPoolBackend>();
    }
    DetectionService service(*fleet_, service_config, std::move(backend));
    EXPECT_STREQ(service.backend_name(), cfg.backend);

    std::vector<SessionHandle> handles;
    for (std::size_t s = 0; s < k_sessions; ++s) {
      handles.push_back(service.create_session(s, SessionConfig{}));
    }
    EXPECT_EQ(service.session_count(), k_sessions);

    const auto outcomes = service_outcomes(service, handles);
    for (std::size_t s = 0; s < k_sessions; ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      const auto it = outcomes.find(handles[s].value);
      ASSERT_NE(it, outcomes.end());
      EXPECT_EQ(it->second, reference[s]);
    }

    // Aggregated stats line up with the reference totals (poll/batch
    // cadence is backend-dependent and deliberately not compared).
    std::size_t reference_windows = 0;
    for (const auto& session : reference) {
      reference_windows += session.size();
    }
    const EngineStats stats = service.stats();
    EXPECT_EQ(stats.windows_classified, reference_windows);
    service.stop();  // idempotent; destructor will call it again
  }
}

TEST_F(ServiceTest, HashRoutingIsStableAndUsesMultipleShards) {
  ServiceConfig config;
  config.shards = 4;
  DetectionService a(*fleet_, config);
  DetectionService b(*fleet_, config);
  std::set<std::uint32_t> shards_used;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const SessionHandle ha = a.create_session(key, SessionConfig{});
    const SessionHandle hb = b.create_session(key, SessionConfig{});
    EXPECT_EQ(ha.shard(), hb.shard()) << "routing not stable for key " << key;
    shards_used.insert(ha.shard());
  }
  EXPECT_EQ(shards_used.size(), 4u);  // 64 keys must spread over 4 shards
}

TEST_F(ServiceTest, CreateSessionValidatesConfigUpFront) {
  DetectionService service(*fleet_);
  SessionConfig bad;
  bad.overlap = 1.0;
  EXPECT_THROW(service.create_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.overlap = -0.25;
  EXPECT_THROW(service.create_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.sample_rate_hz = 0.0;
  EXPECT_THROW(service.create_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.window_seconds = -4.0;
  EXPECT_THROW(service.create_session(bad), InvalidArgument);
  bad = SessionConfig{};
  bad.alarm_consecutive = 0;
  EXPECT_THROW(service.create_session(bad), InvalidArgument);
  EXPECT_EQ(service.session_count(), 0u);
}

TEST_F(ServiceTest, WindowShorterThanTheExtractorMinimumIsRejectedAtCreate) {
  // The e-Glass extractor's 7-level periodic db4 decomposition needs 65
  // samples per window. A shorter geometry must be rejected here, not
  // throw on its first window inside the shard worker, where it would
  // drop the other sessions' chunks in that batch.
  DetectionService service(*fleet_, {},
                           std::make_unique<ThreadPoolBackend>());
  SessionConfig too_short;
  too_short.sample_rate_hz = 16.0;  // 4 s -> 64 samples
  EXPECT_THROW(service.create_session(too_short), InvalidArgument);
  EXPECT_EQ(service.session_count(), 0u);

  SessionConfig shortest;
  shortest.sample_rate_hz = 16.25;  // 4 s -> 65 samples
  const SessionHandle handle = service.create_session(shortest);
  // 60 s at 16.25 Hz: 975 samples -> (975 - 65) / 16 + 1 = 57 windows.
  service.ingest(handle, chunk_views(*background_record_, 0, 975));
  service.flush();
  EXPECT_EQ(service.stats().windows_classified, 57u);
}

TEST_F(ServiceTest, FailedBackendMirrorRollsTheSessionBack) {
  // A backend whose on_session_created throws models a remote mirror
  // rejecting the open: the create must fail with no local-only session
  // left behind, and the next create must start from a clean slate.
  class FailingBackend final : public ExecutionBackend {
   public:
    const char* name() const override { return "failing"; }
    void start(std::vector<std::unique_ptr<Shard>>&, DetectionSink&) override {
    }
    void stop() override {}
    void ingest(Shard&, std::uint64_t,
                const std::vector<std::span<const Real>>&) override {}
    void flush() override {}
    void on_session_created(std::uint32_t, std::uint64_t, std::uint64_t,
                            const SessionConfig&) override {
      if (fail) {
        throw DataError("remote mirror rejected the session");
      }
      ++announced;
    }
    bool fail = false;
    std::size_t announced = 0;
  };
  auto backend = std::make_unique<FailingBackend>();
  FailingBackend* control = backend.get();
  DetectionService service(*fleet_, ServiceConfig{}, std::move(backend));

  control->fail = true;
  EXPECT_THROW(service.create_session(), DataError);
  EXPECT_EQ(service.session_count(), 0u);

  control->fail = false;
  const SessionHandle handle = service.create_session();
  EXPECT_EQ(service.session_count(), 1u);
  EXPECT_EQ(control->announced, 1u);
  EXPECT_EQ(handle.local_id(), 0u);  // the rolled-back slot was reclaimed
  service.ingest(handle, chunk_views(*background_record_, 0, 256));
  EXPECT_THROW(
      service.ingest(SessionHandle::pack(handle.shard(), handle.local_id() + 1),
                     chunk_views(*background_record_, 0, 256)),
      InvalidArgument);
}

TEST_F(ServiceTest, IngestRejectsUnknownSessionsAndMalformedChunks) {
  ServiceConfig config;
  config.shards = 2;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());
  const SessionHandle handle = service.create_session();

  // Unknown shard / unknown local id fail on the caller's thread.
  EXPECT_THROW(service.ingest(SessionHandle::pack(7, 0), {}), InvalidArgument);
  EXPECT_THROW(
      service.ingest(SessionHandle::pack(handle.shard(), 99),
                     chunk_views(*background_record_, 0, 256)),
      InvalidArgument);

  // Malformed chunks fail before they reach a worker thread.
  EXPECT_THROW(service.ingest(handle, {}), InvalidArgument);
  std::vector<std::span<const Real>> lopsided =
      chunk_views(*background_record_, 0, 256);
  lopsided[1] = lopsided[1].subspan(0, 100);
  EXPECT_THROW(service.ingest(handle, lopsided), InvalidArgument);
}

TEST_F(ServiceTest, AlarmHookAndSinkDeliverPackedHandleIds) {
  ServiceConfig config;
  config.shards = 2;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());

  std::mutex mutex;
  std::vector<std::uint64_t> alarm_ids;
  service.set_alarm_hook([&](const Detection& d) {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_TRUE(d.alarm);
    alarm_ids.push_back(d.session_id);
  });

  std::vector<SessionHandle> handles;
  for (std::uint64_t key = 0; key < 4; ++key) {
    handles.push_back(service.create_session(key, SessionConfig{}));
  }
  const std::size_t samples = stream_samples(*seizure_record_);
  for (std::size_t offset = 0; offset + k_chunk <= samples;
       offset += k_chunk) {
    for (const SessionHandle& handle : handles) {
      service.ingest(handle, chunk_views(*seizure_record_, offset, k_chunk));
    }
  }
  service.flush();

  std::vector<Detection> detections;
  service.drain(detections);
  ASSERT_GT(detections.size(), 0u);

  std::set<std::uint64_t> valid_ids;
  for (const SessionHandle& handle : handles) {
    valid_ids.insert(handle.value);
  }
  std::size_t alarm_detections = 0;
  for (const Detection& d : detections) {
    EXPECT_TRUE(valid_ids.count(d.session_id)) << d.session_id;
    alarm_detections += d.alarm ? 1 : 0;
  }
  // stats() takes shard locks; the hook takes `mutex` under a shard
  // lock — so read stats before locking `mutex` (lock-order discipline).
  const std::size_t total_alarms = service.stats().alarms;
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(alarm_ids.size(), alarm_detections);
  EXPECT_EQ(total_alarms, alarm_detections);
  for (const std::uint64_t id : alarm_ids) {
    EXPECT_TRUE(valid_ids.count(id)) << id;
  }
}

TEST_F(ServiceTest, CustomSinkReplacesCollector) {
  class CountingSink final : public DetectionSink {
   public:
    void on_detections(std::span<const Detection> detections) override {
      std::lock_guard<std::mutex> lock(mutex_);
      count_ += detections.size();
    }
    std::size_t count() const {
      std::lock_guard<std::mutex> lock(mutex_);
      return count_;
    }

   private:
    mutable std::mutex mutex_;
    std::size_t count_ = 0;
  };

  DetectionService service(*fleet_, {},
                           std::make_unique<ThreadPoolBackend>());
  CountingSink sink;
  service.set_detection_sink(&sink);
  const SessionHandle handle = service.create_session();
  const std::size_t samples = stream_samples(*background_record_);
  for (std::size_t offset = 0; offset + k_chunk <= samples;
       offset += k_chunk) {
    service.ingest(handle, chunk_views(*background_record_, offset, k_chunk));
  }
  service.flush();
  EXPECT_GT(sink.count(), 0u);
  EXPECT_EQ(sink.count(), service.stats().windows_classified);
  std::vector<Detection> drained;
  EXPECT_EQ(service.drain(drained), 0u);  // collector was bypassed
}

TEST_F(ServiceTest, PatientTriggerPersonalizesThroughTheFacade) {
  // The engine-level self-learning flow, driven end-to-end through the
  // sharded facade on worker threads: a fleet-opt-out session misses its
  // seizure, the patient presses the button, Algorithm 1 labels the
  // history, and the personalized model takes over.
  ServiceConfig config;
  config.shards = 2;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());

  std::mutex mutex;
  std::vector<std::pair<SessionHandle, signal::Interval>> labels;
  service.set_label_hook(
      [&](SessionHandle handle, const signal::Interval& label) {
        std::lock_guard<std::mutex> lock(mutex);
        labels.emplace_back(handle, label);
      });

  SessionConfig personal;
  personal.history_seconds = 180.0;  // covers the whole streamed slice
  personal.use_fleet_model = false;
  const SessionHandle handle = service.create_session(personal);
  core::SelfLearningConfig learn;
  learn.average_seizure_duration_s = simulator_->average_seizure_duration(4);
  service.attach_self_learning(handle, learn);
  EXPECT_TRUE(service.has_self_learning(handle));

  const std::size_t samples = stream_samples(*seizure_record_);
  for (std::size_t offset = 0; offset + k_chunk <= samples;
       offset += k_chunk) {
    service.ingest(handle, chunk_views(*seizure_record_, offset, k_chunk));
  }
  service.flush();
  EXPECT_EQ(service.session_alarms(handle), 0u);  // cold model missed it
  EXPECT_EQ(service.stats().forest_windows, 0u);

  const signal::Interval label = service.patient_trigger(handle);
  const signal::Interval truth = seizure_record_->seizures().front();
  EXPECT_GT(label.overlap(truth), 0.0);
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(labels.size(), 1u);
    EXPECT_EQ(labels[0].first, handle);
  }

  for (std::size_t offset = 0; offset + k_chunk <= samples;
       offset += k_chunk) {
    service.ingest(handle, chunk_views(*seizure_record_, offset, k_chunk));
  }
  service.flush();
  EXPECT_GT(service.stats().forest_windows, 0u);  // personal model runs

  std::vector<Detection> detections;
  service.drain(detections);
  std::size_t positives = 0;
  for (const Detection& d : detections) {
    positives += d.label == 1 ? 1 : 0;
  }
  EXPECT_GT(positives, 0u);  // the learned detector now sees the seizure
}

TEST_F(ServiceTest, HotSwapMatchesSingleEngineRunsAcrossTheBoundary) {
  // Deterministic mid-stream redeploy: model B (a different fit,
  // compiled) replaces the fleet model for every session at a known
  // round boundary. The service run must match a single-Engine run that
  // swaps at the same boundary — pre-swap windows classified by A,
  // post-swap windows by B, bit for bit.
  Rng rng(2);
  auto detector_b = std::make_shared<core::RealtimeDetector>();
  detector_b->fit(ml::balance_classes(*train_set_, rng), 99);
  const std::shared_ptr<const ml::CompiledForest> compiled_b =
      detector_b->compile();

  const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
  const std::size_t swap_round = rounds / 2;

  // Reference: one Engine, swap at the same window boundary.
  std::vector<std::vector<WindowOutcome>> reference(k_sessions);
  {
    Engine engine(*fleet_, screened_config());
    for (std::size_t s = 0; s < k_sessions; ++s) {
      engine.add_session();
    }
    for (std::size_t round = 0; round < rounds; ++round) {
      if (round == swap_round) {
        for (std::size_t s = 0; s < k_sessions; ++s) {
          engine.swap_model(s, compiled_b);
        }
      }
      for (std::size_t s = 0; s < k_sessions; ++s) {
        const signal::EegRecord& record = record_for(s);
        if ((round + 1) * k_chunk <= stream_samples(record)) {
          engine.ingest(s, chunk_views(record, round * k_chunk, k_chunk));
        }
      }
      for (const Detection& d : engine.poll()) {
        reference[d.session_id].push_back(outcome_of(d));
      }
    }
  }

  for (const std::size_t shards : {1u, 3u}) {
    SCOPED_TRACE("threads x " + std::to_string(shards) + " shards");
    ServiceConfig config;
    config.shards = shards;
    config.engine = screened_config();
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
        // flush() pins the boundary to the reference's window count; the
        // service itself keeps running — no stop, no drained queues
        // required by swap_model.
        service.flush();
        for (const SessionHandle& handle : handles) {
          service.swap_model(handle, compiled_b);
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
      EXPECT_STREQ(service.session_model(handle)->name(), "compiled");
    }
    for (std::size_t s = 0; s < k_sessions; ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      const auto it = outcomes.find(handles[s].value);
      ASSERT_NE(it, outcomes.end());
      EXPECT_EQ(it->second, reference[s]);
    }
  }
}

TEST_F(ServiceTest, HotSwapUnderContinuousIngestPreservesParity) {
  // The headline swap property: swap_model needs no flush or stream
  // pause. A swapper thread relentlessly flips every session between the
  // fleet ForestModel and its compiled artifact while chunks keep
  // flowing on worker threads. Because the two models are bit-identical,
  // the delivered detections must equal the plain single-Engine
  // reference no matter when each swap lands — proving a swap never
  // loses, duplicates, or corrupts a window (and TSan proves it races
  // nothing).
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();

  ServiceConfig config;
  config.shards = 2;
  config.engine = screened_config();
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());
  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    handles.push_back(service.create_session(s, SessionConfig{}));
  }

  // Rotate through two independently compiled flat artifacts and
  // nullptr (back to the fleet ForestModel). All three classify
  // bit-identically, so parity must survive any interleaving of deploys.
  const std::vector<std::shared_ptr<const ml::InferenceModel>> deploys = {
      (*fleet_)->compile(),
      (*fleet_)->compile(),
      nullptr,
  };
  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    std::size_t next = 0;
    while (!stop_swapping.load()) {
      for (const SessionHandle& handle : handles) {
        service.swap_model(handle, deploys[next % deploys.size()]);
        ++next;
      }
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
  stop_swapping.store(true);
  swapper.join();
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

TEST_F(ServiceTest, SwapModelRejectsUnknownSessions) {
  DetectionService service(*fleet_);
  const std::shared_ptr<const ml::CompiledForest> compiled =
      (*fleet_)->compile();
  EXPECT_THROW(service.swap_model(SessionHandle::pack(7, 0), compiled),
               InvalidArgument);
  EXPECT_THROW(service.swap_model(SessionHandle::pack(0, 3), compiled),
               InvalidArgument);
}

TEST_F(ServiceTest, FlushCompletesWhileProducersKeepStreaming) {
  // flush() is a watermark barrier: it covers the chunks ingested before
  // the call and must return even though a producer thread never stops
  // pushing new ones behind it (a continuously-streaming radio link).
  DetectionService service(*fleet_, {},
                           std::make_unique<ThreadPoolBackend>());
  const SessionHandle handle = service.create_session();
  const std::size_t samples = stream_samples(*background_record_);

  std::atomic<bool> stop_producing{false};
  std::atomic<std::size_t> chunks_ingested{0};
  std::thread producer([&] {
    std::size_t offset = 0;
    do {
      service.ingest(handle,
                     chunk_views(*background_record_, offset, k_chunk));
      chunks_ingested.fetch_add(1);
      offset = (offset + k_chunk) % (samples - k_chunk);
    } while (!stop_producing.load());
  });
  // Flush only once the producer is live (one 1600-sample chunk already
  // completes a window), so the barrier really races a streaming
  // producer however late its thread gets scheduled.
  while (chunks_ingested.load() == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 25; ++i) {
    service.flush();  // would deadlock (-> ctest timeout) if the barrier
                      // required a momentarily-empty queue
  }
  stop_producing.store(true);
  producer.join();
  service.flush();
  EXPECT_GT(service.stats().windows_classified, 0u);
}

TEST_F(ServiceTest, BoundedQueueBackpressurePreservesParity) {
  // A tiny ingest queue forces producers to block on a lagging shard;
  // the delivered detections must be unaffected.
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();
  ServiceConfig config;
  config.shards = 2;
  config.engine = screened_config();
  ThreadPoolConfig pool;
  pool.queue_capacity = 1;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>(pool));
  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    handles.push_back(service.create_session(s, SessionConfig{}));
  }
  const auto outcomes = service_outcomes(service, handles);
  for (std::size_t s = 0; s < k_sessions; ++s) {
    const auto it = outcomes.find(handles[s].value);
    ASSERT_NE(it, outcomes.end()) << "session " << s;
    EXPECT_EQ(it->second, reference[s]) << "session " << s;
  }
}

TEST_F(ServiceTest, ConcurrentProducersSharingAShardKeepParity) {
  // ingest() is thread-safe across distinct sessions: several producer
  // threads pushing into the same shard queue at once (capacity 1, so
  // they also contend for room) must still leave every session's
  // detections equal to the single-Engine reference.
  constexpr std::size_t k_producers = 4;
  constexpr std::size_t k_sessions_per_producer = k_sessions / k_producers;
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();
  ServiceConfig config;
  config.shards = 2;
  config.engine = screened_config();
  ThreadPoolConfig pool;
  pool.queue_capacity = 1;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>(pool));
  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    handles.push_back(service.create_session(s, SessionConfig{}));
  }
  // Producer p owns sessions p * k_sessions_per_producer onward; with
  // more producers than shards, at least two of them share a shard.
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < k_producers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      const std::size_t rounds =
          stream_samples(*background_record_) / k_chunk;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t k = 0; k < k_sessions_per_producer; ++k) {
          const std::size_t s = p * k_sessions_per_producer + k;
          const signal::EegRecord& record = record_for(s);
          if ((round + 1) * k_chunk <= stream_samples(record)) {
            service.ingest(handles[s],
                           chunk_views(record, round * k_chunk, k_chunk));
          }
        }
      }
    });
  }
  go.store(true);
  for (std::thread& t : producers) {
    t.join();
  }
  service.flush();

  std::vector<Detection> drained;
  service.drain(drained);
  std::map<std::uint64_t, std::vector<WindowOutcome>> outcomes;
  for (const Detection& d : drained) {
    outcomes[d.session_id].push_back(outcome_of(d));
  }
  for (std::size_t s = 0; s < k_sessions; ++s) {
    const auto it = outcomes.find(handles[s].value);
    ASSERT_NE(it, outcomes.end()) << "session " << s;
    EXPECT_EQ(it->second, reference[s]) << "session " << s;
  }
}

TEST_F(ServiceTest, ScopedFlushDeliversFullBarrierSemanticsForCoveredSessions) {
  // Waiting on flush_sessions_async({h}) must behave exactly like
  // flush() as far as session h is concerned: every chunk ingested
  // before the call is classified and delivered when `done` runs.
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();
  ServiceConfig config;
  config.shards = 2;
  config.engine = screened_config();
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());
  // Session 0 of the workload streams the seizure record.
  const SessionHandle handle = service.create_session(0, SessionConfig{});

  std::vector<WindowOutcome> outcomes;
  std::vector<Detection> drained;
  const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
  for (std::size_t round = 0; round < rounds; ++round) {
    if ((round + 1) * k_chunk <= stream_samples(*seizure_record_)) {
      service.ingest(handle,
                     chunk_views(*seizure_record_, round * k_chunk, k_chunk));
    }
    flush_sessions_and_wait(service, {&handle, 1});
    drained.clear();
    service.drain(drained);
    for (const Detection& d : drained) {
      ASSERT_EQ(d.session_id, handle.value);
      outcomes.push_back(outcome_of(d));
    }
  }
  EXPECT_EQ(outcomes, reference[0]);
}

TEST_F(ServiceTest, AsyncFlushRunsInlineWhenNothingIsCovered) {
  DetectionService service(*fleet_, {},
                           std::make_unique<ThreadPoolBackend>());
  bool done = false;
  service.flush_sessions_async({}, [&] { done = true; });
  // No covered shard: the completion runs before the call returns.
  EXPECT_TRUE(done);

  // Inline backend: the scoped flush degenerates to a synchronous poll,
  // so the completion also runs inline.
  DetectionService inline_service(*fleet_);
  const SessionHandle handle = inline_service.create_session();
  bool inline_done = false;
  inline_service.flush_sessions_async({&handle, 1},
                                      [&] { inline_done = true; });
  EXPECT_TRUE(inline_done);
}

TEST_F(ServiceTest, CloseSessionRetiresTheSlotAndDropsLateChunks) {
  ServiceConfig config;
  config.shards = 2;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());
  const SessionHandle closing = service.create_session(0, SessionConfig{});
  const SessionHandle survivor = service.create_session(1, SessionConfig{});
  EXPECT_EQ(service.session_count(), 2u);

  service.ingest(closing, chunk_views(*background_record_, 0, k_chunk));
  service.flush();
  std::vector<Detection> drained;
  service.drain(drained);
  EXPECT_GT(drained.size(), 0u);  // alive: chunks classify

  service.close_session(closing);
  // The slot is a tombstone now: control accessors reject it...
  EXPECT_THROW(service.session(closing), Error);
  EXPECT_THROW(service.session_alarms(closing), Error);
  EXPECT_THROW(service.patient_trigger(closing), Error);
  // ...double close rejects too...
  EXPECT_THROW(service.close_session(closing), Error);
  // ...ids are never reused, so the count stays a high-watermark...
  EXPECT_EQ(service.session_count(), 2u);
  // ...and late chunks (a client that raced the close) drop silently.
  service.ingest(closing, chunk_views(*background_record_, k_chunk, k_chunk));
  service.flush();
  drained.clear();
  service.drain(drained);
  EXPECT_EQ(drained.size(), 0u);

  // The surviving session is untouched by its neighbor's close.
  service.ingest(survivor, chunk_views(*background_record_, 0, k_chunk));
  service.flush();
  drained.clear();
  service.drain(drained);
  ASSERT_GT(drained.size(), 0u);
  for (const Detection& d : drained) {
    EXPECT_EQ(d.session_id, survivor.value);
  }

  // Unknown handles still fail loudly — close is for live-or-closed
  // slots, not arbitrary ids.
  EXPECT_THROW(service.close_session(SessionHandle::pack(0, 99)),
               InvalidArgument);
}

TEST_F(ServiceTest, ScopedFlushOnOneShardDoesNotWaitForABlockedShard) {
  // The serving-tier independence property: a flush covering only shard
  // B's sessions completes while shard A's worker is wedged mid-delivery,
  // and A's own async flush stays pending until its worker resumes.
  class GateSink final : public DetectionSink {
   public:
    explicit GateSink(std::uint64_t gated_session)
        : gated_session_(gated_session) {}
    void on_detections(std::span<const Detection> detections) override {
      bool gate = false;
      for (const Detection& d : detections) {
        gate |= d.session_id == gated_session_;
      }
      if (!gate) {
        return;
      }
      std::unique_lock<std::mutex> lock(mutex_);
      if (gated_once_) {
        return;  // only the first delivery blocks
      }
      gated_once_ = true;
      blocked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
      blocked_ = false;
    }
    void await_blocked() {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return blocked_; });
    }
    void release() {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
      cv_.notify_all();
    }

   private:
    const std::uint64_t gated_session_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool gated_once_ = false;
    bool blocked_ = false;
    bool released_ = false;
  };

  ServiceConfig config;
  config.shards = 2;
  DetectionService service(*fleet_, config,
                           std::make_unique<ThreadPoolBackend>());
  // Probe routing keys until the two sessions land on distinct shards.
  std::vector<SessionHandle> handles;
  std::set<std::uint32_t> shards_seen;
  for (std::uint64_t key = 0; shards_seen.size() < 2; ++key) {
    const SessionHandle handle = service.create_session(key, SessionConfig{});
    if (shards_seen.insert(handle.shard()).second) {
      handles.push_back(handle);
    }
  }
  const SessionHandle blocked_session = handles[0];
  const SessionHandle free_session = handles[1];

  GateSink sink(blocked_session.value);
  service.set_detection_sink(&sink);

  // Wedge the blocked session's shard worker inside the sink.
  service.ingest(blocked_session, chunk_views(*background_record_, 0, k_chunk));
  sink.await_blocked();

  // An async flush of the wedged shard cannot complete yet.
  std::atomic<bool> blocked_flush_done{false};
  service.flush_sessions_async({&blocked_session, 1},
                               [&] { blocked_flush_done.store(true); });
  EXPECT_FALSE(blocked_flush_done.load());

  // The other shard's sessions flush to completion regardless — this
  // would deadlock (-> ctest timeout) under the old service-wide
  // barrier.
  service.ingest(free_session, chunk_views(*background_record_, 0, k_chunk));
  flush_sessions_and_wait(service, {&free_session, 1});
  EXPECT_FALSE(blocked_flush_done.load());

  sink.release();
  while (!blocked_flush_done.load()) {
    std::this_thread::yield();
  }
  service.flush();
  service.stop();
}

}  // namespace
}  // namespace esl::engine
