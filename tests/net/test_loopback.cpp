// Loopback client/server integration: a ShardServer and a
// RemoteBackend-driven DetectionService in one process, talking over a
// real unix-domain socket.
//
// The headline contract is the PR-2 parity test lifted across the
// process boundary: for the same per-session input streams, a service
// whose backend is a socket + another service reproduces the
// single-threaded Engine's detections bit-for-bit per session — for
// inline and threaded server backends at several shard counts. The
// rest covers the control plane (stats, registry model swap, label
// trigger error propagation), hostile clients (bad configs, unknown
// sessions, garbage bytes), a concurrent-ingest run that TSan checks
// end to end (client mutex, server event loop, shard workers), delivery
// of detections before the flush, the server's cap on output queued for
// a client that does not read, and ingest after close being silent on
// every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "engine/service.hpp"
#include "ml/artifact.hpp"
#include "ml/dataset.hpp"
#include "net/client.hpp"
#include "net/shard_server.hpp"
#include "sim/cohort.hpp"

namespace esl::net {
namespace {

using engine::Detection;
using engine::DetectionService;
using engine::Engine;
using engine::EngineConfig;
using engine::ScreeningConfig;
using engine::ServiceConfig;
using engine::SessionHandle;

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

/// Per-session observable outcome of one classified window (the
/// bit-for-bit comparison unit, as in tests/engine/test_service.cpp).
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

/// A session geometry whose every sample completes a window: 4 s at
/// 16.25 Hz is the extractor's 65-sample minimum, and a 0.99 overlap
/// rounds the hop to one sample. Output outgrows input fast.
engine::SessionConfig one_sample_hop() {
  engine::SessionConfig config;
  config.sample_rate_hz = 16.25;
  config.overlap = 0.99;
  return config;
}

/// A fresh socket path per test: ctest runs suites concurrently and a
/// shared path would cross-bind.
platform::SocketAddress loopback_address() {
  const std::string path =
      ::testing::TempDir() + "esl_loopback_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".sock";
  return platform::SocketAddress::parse("unix:" + path);
}

/// Forwards to a RemoteBackend, but hands one session's chunks on with
/// only their first channel: a chunk the client service accepted and
/// only the server refuses.
class ChannelNarrowingBackend final : public engine::ExecutionBackend {
 public:
  explicit ChannelNarrowingBackend(std::unique_ptr<RemoteBackend> inner)
      : inner_(std::move(inner)) {}

  void narrow(SessionHandle handle) { narrowed_ = handle; }

  const char* name() const override { return inner_->name(); }
  void start(std::vector<std::unique_ptr<engine::Shard>>& shards,
             engine::DetectionSink& sink) override {
    inner_->start(shards, sink);
  }
  void stop() override { inner_->stop(); }
  void ingest(engine::Shard& shard, std::uint64_t local_id,
              const std::vector<std::span<const Real>>& chunk) override {
    if (SessionHandle::pack(shard.index, local_id) == narrowed_) {
      inner_->ingest(shard, local_id, {chunk.front()});
      return;
    }
    inner_->ingest(shard, local_id, chunk);
  }
  void on_session_created(std::uint32_t shard_index, std::uint64_t local_id,
                          std::uint64_t routing_key,
                          const engine::SessionConfig& config) override {
    inner_->on_session_created(shard_index, local_id, routing_key, config);
  }
  void flush() override { inner_->flush(); }
  void close_session(engine::Shard& shard, std::uint64_t local_id) override {
    inner_->close_session(shard, local_id);
  }

 private:
  std::unique_ptr<RemoteBackend> inner_;
  SessionHandle narrowed_{~0ull};
};

/// Fleet detector + mixed seizure/background workload, sized down from
/// the engine suite (the wire adds a syscall-bound loop per chunk).
class NetLoopback : public ::testing::Test {
 protected:
  static constexpr std::size_t k_sessions = 6;
  static constexpr Seconds k_stream_seconds = 120.0;
  static constexpr std::size_t k_chunk = 1600;  // 6.25 s, misaligned to hop

  static void SetUpTestSuite() {
    simulator_ = new sim::CohortSimulator();
    const auto events = simulator_->events_for_patient(4);
    train_record_ = new signal::EegRecord(
        simulator_->synthesize_sample(events[0], 0, 500.0, 600.0));
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

  static const signal::EegRecord& record_for(std::size_t s) {
    return s % 2 == 0 ? *seizure_record_ : *background_record_;
  }

  static std::size_t stream_samples(const signal::EegRecord& record) {
    return std::min(record.length_samples(),
                    static_cast<std::size_t>(k_stream_seconds *
                                             record.sample_rate_hz()));
  }

  static EngineConfig screened_config() {
    EngineConfig config;
    config.screening = ScreeningConfig{
        14, core::fit_stage1_threshold(*train_set_, 0.98, 14)};
    return config;
  }

  /// Ground truth: one Engine, chunk/poll per round.
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
      std::vector<Detection> detections;
      engine.poll_into(detections);
      for (const Detection& d : detections) {
        outcomes[d.session_id].push_back(outcome_of(d));
      }
    }
    return outcomes;
  }

  /// A running server with the given backend/shard topology and the
  /// fixture's fleet model.
  static std::unique_ptr<ShardServer> make_server(
      const platform::SocketAddress& address, std::size_t shards,
      bool threaded, std::string registry_directory = {}) {
    ShardServerConfig config;
    config.address = address;
    config.service.shards = shards;
    config.service.engine = screened_config();
    config.threaded_backend = threaded;
    config.registry_directory = std::move(registry_directory);
    auto server = std::make_unique<ShardServer>(*fleet_, std::move(config));
    server->start();
    return server;
  }

  /// A client-side service whose backend is the wire.
  static std::unique_ptr<DetectionService> make_remote_service(
      const platform::SocketAddress& address, std::size_t shards,
      RemoteBackend** backend_out = nullptr) {
    ServiceConfig config;
    config.shards = shards;
    config.engine = screened_config();
    auto backend = std::make_unique<RemoteBackend>(address);
    if (backend_out != nullptr) {
      *backend_out = backend.get();
    }
    return std::make_unique<DetectionService>(*fleet_, config,
                                              std::move(backend));
  }

  static sim::CohortSimulator* simulator_;
  static signal::EegRecord* train_record_;
  static signal::EegRecord* seizure_record_;
  static signal::EegRecord* background_record_;
  static ml::Dataset* train_set_;
  static std::shared_ptr<const core::RealtimeDetector>* fleet_;
};

sim::CohortSimulator* NetLoopback::simulator_ = nullptr;
signal::EegRecord* NetLoopback::train_record_ = nullptr;
signal::EegRecord* NetLoopback::seizure_record_ = nullptr;
signal::EegRecord* NetLoopback::background_record_ = nullptr;
ml::Dataset* NetLoopback::train_set_ = nullptr;
std::shared_ptr<const core::RealtimeDetector>* NetLoopback::fleet_ = nullptr;

TEST_F(NetLoopback, ParityRemoteServiceMatchesSingleEngineBitForBit) {
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();

  struct Topology {
    bool threaded;
    std::size_t shards;
  };
  const Topology topologies[] = {
      {false, 1}, {false, 3}, {true, 2}, {true, 4}};
  for (const Topology& topology : topologies) {
    SCOPED_TRACE(std::string(topology.threaded ? "threads" : "inline") +
                 " x " + std::to_string(topology.shards) + " shards");
    const platform::SocketAddress address = loopback_address();
    auto server = make_server(address, topology.shards, topology.threaded);
    auto service = make_remote_service(address, topology.shards);

    std::vector<SessionHandle> handles;
    for (std::size_t s = 0; s < k_sessions; ++s) {
      handles.push_back(service->create_session());
    }
    EXPECT_EQ(service->backend_name(), std::string("remote"));

    std::map<std::uint64_t, std::vector<WindowOutcome>> outcomes;
    std::vector<Detection> drained;
    const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t s = 0; s < k_sessions; ++s) {
        const signal::EegRecord& record = record_for(s);
        if ((round + 1) * k_chunk <= stream_samples(record)) {
          service->ingest(handles[s],
                          chunk_views(record, round * k_chunk, k_chunk));
        }
      }
      service->flush();
      drained.clear();
      service->drain(drained);
      for (const Detection& d : drained) {
        outcomes[d.session_id].push_back(outcome_of(d));
      }
    }

    for (std::size_t s = 0; s < k_sessions; ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      EXPECT_EQ(outcomes[handles[s].value], reference[s]);
    }
    service->stop();
    server->stop();
  }
}

TEST_F(NetLoopback, RemoteStatsMatchTheServersOwnCounters) {
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 2, false);
  RemoteBackend* backend = nullptr;
  auto service = make_remote_service(address, 2, &backend);

  const SessionHandle handle = service->create_session();
  const signal::EegRecord& record = record_for(0);
  for (std::size_t round = 0; round < 8; ++round) {
    service->ingest(handle, chunk_views(record, round * k_chunk, k_chunk));
  }
  service->flush();

  const engine::EngineStats remote = backend->remote_stats();
  const engine::EngineStats local = server->service().stats();
  EXPECT_GT(remote.windows_classified, 0u);
  EXPECT_EQ(remote.windows_classified, local.windows_classified);
  EXPECT_EQ(remote.forest_windows, local.forest_windows);
  EXPECT_EQ(remote.screened_windows, local.screened_windows);
  EXPECT_EQ(remote.alarms, local.alarms);
  // The mirror Engines classified nothing: the compute happened in the
  // "server process".
  EXPECT_EQ(service->stats().windows_classified, 0u);
}

TEST_F(NetLoopback, SwapModelByRegistryKeyDeploysOnTheServer) {
  // Publish a personalized artifact into a registry directory of this
  // process's own (two test runs on one host must not share it).
  const std::string directory = ::testing::TempDir() + "esl_net_registry_" +
                                std::to_string(::getpid());
  std::filesystem::create_directories(directory);
  ml::RandomForest forest;
  Rng rng(7);
  const ml::Dataset balanced = ml::balance_classes(*train_set_, rng);
  forest.fit(balanced, 3);
  ml::save_artifact(directory + "/patient-4.eslm", ml::CompiledForest(forest));

  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, false, directory);
  RemoteBackend* backend = nullptr;
  auto service = make_remote_service(address, 1, &backend);
  EXPECT_TRUE(backend->server_has_registry());

  const SessionHandle handle = service->create_session();
  // One shard on both sides: the server-side handle for the first
  // session is the same packed value.
  const auto before = server->service().session_model(handle);
  backend->remote_swap_model(handle, "patient-4");
  const auto after = server->service().session_model(handle);
  EXPECT_NE(after, nullptr);
  EXPECT_NE(after, before);  // the registry artifact is now deployed

  // Unknown key: the registry's DataError crosses the wire typed.
  EXPECT_THROW(backend->remote_swap_model(handle, "patient-5"), DataError);
  std::filesystem::remove_all(directory);
}

TEST_F(NetLoopback, ServerErrorsComeBackTypedAndTheConnectionSurvives) {
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, false);

  ShardClient client;
  client.connect(address);
  EXPECT_EQ(client.shard_count(), 1u);
  EXPECT_FALSE(client.has_registry());

  // Bad stream geometry is rejected by the server's own validation and
  // surfaces as the same exception type the in-process call throws.
  engine::SessionConfig bad;
  bad.overlap = 2.0;
  EXPECT_THROW(client.open_session(1, 0, bad), InvalidArgument);

  // The conversation survives a rejected request.
  EXPECT_NO_THROW(client.open_session(1, 0, engine::SessionConfig{}));
  // Chunks for a session this connection never opened are refused.
  const std::vector<Real> samples(k_chunk, 0.0);
  std::vector<std::span<const Real>> chunk(4,
                                           std::span<const Real>(samples));
  EXPECT_THROW(
      {
        client.ingest(99, chunk);
        std::vector<Detection> out;
        client.flush(out);
      },
      InvalidArgument);

  // A model swap on a server with no registry fails server-side; the
  // error crosses the wire instead of killing the conversation.
  EXPECT_THROW(client.swap_model(1, "patient-4"), DataError);

  // Still alive for a clean goodbye.
  std::vector<Detection> out;
  client.flush(out);
  client.close();
  server->stop();
}

TEST_F(NetLoopback, ShortWindowIsRejectedWhenTheSessionOpens) {
  // A raw client can ask for any geometry: a window shorter than the
  // extractor's 65-sample minimum must come back as an error frame at
  // open time, not throw later inside the threaded shard worker.
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, true);

  ShardClient client;
  client.connect(address);
  engine::SessionConfig too_short;
  too_short.sample_rate_hz = 16.0;  // 4 s -> 64 samples
  EXPECT_THROW(client.open_session(1, 0, too_short), InvalidArgument);

  engine::SessionConfig shortest;
  shortest.sample_rate_hz = 16.25;  // 4 s -> 65 samples
  ASSERT_NO_THROW(client.open_session(2, 0, shortest));
  // 60 s at 16.25 Hz: 975 samples -> (975 - 65) / 16 + 1 = 57 windows.
  client.ingest(2, chunk_views(*background_record_, 0, 975));
  std::vector<Detection> out;
  client.flush(out);
  EXPECT_EQ(out.size(), 57u);
  client.close();
  server->stop();
}

TEST_F(NetLoopback, GarbageBytesPoisonOnlyTheirOwnConnection) {
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, false);

  // A well-behaved conversation on connection A...
  ShardClient good;
  good.connect(address);
  good.open_session(1, 0, engine::SessionConfig{});

  // ...survives connection B spraying garbage and getting dropped.
  {
    platform::Socket hostile = platform::Socket::connect(address);
    std::vector<std::byte> garbage(256, std::byte{0x5A});
    EXPECT_EQ(hostile.send_some(garbage), garbage.size());
    std::byte buffer[64];
    // The server drops the connection without replying: recv sees EOF.
    EXPECT_EQ(hostile.recv_some(buffer), 0u);
  }

  const signal::EegRecord& record = record_for(0);
  good.ingest(1, chunk_views(record, 0, k_chunk * 8));
  std::vector<Detection> detections;
  good.flush(detections);
  EXPECT_FALSE(detections.empty());
  good.close();
  server->stop();
}

TEST_F(NetLoopback, ConcurrentSessionIngestOverOneConnection) {
  // One connection, many threads: the RemoteBackend serializes the wire
  // while the threaded server classifies on shard workers. Run under
  // TSan in CI (suite matched by the tsan job regex). Parity must hold
  // per session: serialization may interleave sessions arbitrarily but
  // never reorders one session's chunks.
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();

  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 2, true);
  auto service = make_remote_service(address, 2);

  std::vector<SessionHandle> handles;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    handles.push_back(service->create_session());
  }

  std::vector<std::thread> streams;
  for (std::size_t s = 0; s < k_sessions; ++s) {
    streams.emplace_back([&, s] {
      const signal::EegRecord& record = record_for(s);
      const std::size_t rounds = stream_samples(record) / k_chunk;
      for (std::size_t round = 0; round < rounds; ++round) {
        service->ingest(handles[s],
                        chunk_views(record, round * k_chunk, k_chunk));
      }
    });
  }
  for (std::thread& stream : streams) {
    stream.join();
  }
  service->flush();

  std::vector<Detection> drained;
  service->drain(drained);
  std::map<std::uint64_t, std::vector<WindowOutcome>> outcomes;
  for (const Detection& d : drained) {
    outcomes[d.session_id].push_back(outcome_of(d));
  }
  // One barrier at the end instead of per-round flushes: every window
  // of the stream is classified, so each session's full sequence must
  // match the reference's full sequence.
  for (std::size_t s = 0; s < k_sessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    EXPECT_EQ(outcomes[handles[s].value], reference[s]);
  }
  service->stop();
  server->stop();
}

TEST_F(NetLoopback, CloseSessionOverTheWireRetiresTheServerSlot) {
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, false);

  ShardClient client;
  client.connect(address);
  const std::uint64_t server_session =
      client.open_session(1, 0, engine::SessionConfig{});
  const SessionHandle server_handle =
      SessionHandle::pack(0, SessionHandle{server_session}.local_id());

  const signal::EegRecord& record = record_for(0);
  client.ingest(1, chunk_views(record, 0, k_chunk * 4));
  std::vector<Detection> detections;
  client.flush(detections);
  EXPECT_FALSE(detections.empty());

  client.close_session(1);
  // The server engine slot is a tombstone now...
  EXPECT_THROW(server->service().session_alarms(server_handle), Error);
  // ...chunks for the retired client id are refused (the route is gone)...
  client.ingest(1, chunk_views(record, 0, k_chunk));
  EXPECT_THROW(
      {
        std::vector<Detection> out;
        client.flush(out);
      },
      InvalidArgument);
  // ...as is a second close, while the conversation itself survives.
  EXPECT_THROW(client.close_session(1), InvalidArgument);
  EXPECT_NO_THROW(client.open_session(2, 1, engine::SessionConfig{}));
  client.close();
  server->stop();
}

TEST_F(NetLoopback, DroppedConnectionReapsItsServerSessions) {
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, false);

  {
    ShardClient churner;
    churner.connect(address);
    churner.open_session(10, 0, engine::SessionConfig{});
    churner.open_session(11, 1, engine::SessionConfig{});
    const signal::EegRecord& record = record_for(0);
    churner.ingest(10, chunk_views(record, 0, k_chunk * 2));
    std::vector<Detection> out;
    churner.flush(out);
    churner.close();  // orderly goodbye -> the server drops the connection
  }

  // The drop closes both server-side sessions; poll until the loop
  // thread has processed it.
  const SessionHandle first = SessionHandle::pack(0, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    try {
      server->service().session_alarms(first);
    } catch (const Error&) {
      break;  // tombstoned: the reap happened
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never reaped the dropped connection's sessions";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_THROW(server->service().session_alarms(SessionHandle::pack(0, 1)),
               Error);
  // Slot ids are never reused: the next client's session gets a fresh
  // slot and serves normally.
  ShardClient next;
  next.connect(address);
  const std::uint64_t fresh = next.open_session(20, 2, engine::SessionConfig{});
  EXPECT_EQ(SessionHandle{fresh}.local_id(), 2u);
  next.ingest(20, chunk_views(*background_record_, 0, k_chunk * 2));
  std::vector<Detection> detections;
  next.flush(detections);
  EXPECT_FALSE(detections.empty());
  next.close();
  server->stop();
}

TEST_F(NetLoopback, OneConnectionsFlushDoesNotBlockAnothers) {
  // The scoped-flush contract across the wire: connection A's kFlush
  // barriers only A's shards. With A's shard worker wedged mid-delivery,
  // connection B keeps completing full ingest+flush round trips — under
  // the old service-wide barrier B's first flush would deadlock behind
  // A's (-> ctest timeout). Run under TSan in CI.
  class GateSink final : public engine::DetectionSink {
   public:
    void gate_on(std::uint64_t session) {
      std::lock_guard<std::mutex> lock(mutex_);
      gated_session_ = session;
    }
    void on_detections(std::span<const Detection> detections) override {
      std::unique_lock<std::mutex> lock(mutex_);
      bool gate = false;
      for (const Detection& d : detections) {
        gate |= d.session_id == gated_session_;
      }
      if (!gate || gated_once_) {
        return;
      }
      gated_once_ = true;
      blocked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
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
    std::mutex mutex_;
    std::condition_variable cv_;
    std::uint64_t gated_session_ = ~0ull;
    bool gated_once_ = false;
    bool blocked_ = false;
    bool released_ = false;
  };

  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 2, true);
  // Replace the server's detection routing with the gate: this test is
  // about flush acks (which bypass the sink), so losing the detection
  // frames is fine.
  GateSink gate;
  server->service().set_detection_sink(&gate);

  ShardClient a;
  a.connect(address);
  const std::uint64_t a_session = a.open_session(1, 0, engine::SessionConfig{});
  const std::uint32_t a_shard = SessionHandle{a_session}.shard();

  // B's session must live on the other shard; probe routing keys. A
  // probe that lands on A's shard would drag that shard into B's scoped
  // flushes, so retire it (exercising kCloseSession along the way).
  ShardClient b;
  b.connect(address);
  std::uint64_t b_key = 1;
  for (;; ++b_key) {
    const std::uint64_t candidate =
        b.open_session(b_key, b_key, engine::SessionConfig{});
    if (SessionHandle{candidate}.shard() != a_shard) {
      break;
    }
    b.close_session(b_key);
  }

  // Wedge A's shard worker inside the sink delivery. The chunk must be
  // big enough to cross the client's k_ingest_batch_bytes threshold, or
  // it would sit in the batch buffer until A's flush.
  gate.gate_on(a_session);
  a.ingest(1, chunk_views(*seizure_record_, 0, k_chunk * 8));
  gate.await_blocked();

  // A's flush cannot complete while its worker is wedged.
  std::atomic<bool> a_flushed{false};
  std::thread a_flush([&] {
    std::vector<Detection> out;
    a.flush(out);
    a_flushed.store(true);
  });

  // B completes several full round trips regardless.
  for (std::size_t round = 0; round < 5; ++round) {
    b.ingest(b_key, chunk_views(*background_record_, round * k_chunk, k_chunk));
    std::vector<Detection> out;
    b.flush(out);
  }
  EXPECT_FALSE(a_flushed.load());

  gate.release();
  a_flush.join();
  EXPECT_TRUE(a_flushed.load());
  a.close();
  b.close();
  server->stop();
}

TEST_F(NetLoopback, DetectionsArriveBeforeTheFlush) {
  // The client reads on every batch send, and RemoteBackend hands what
  // it read to the sink on the ingest caller's thread: windows reach the
  // sink while the stream runs, before any flush of this service. After
  // the closing flush, each session's stream is still bit-identical to
  // the single-Engine reference.
  const std::vector<std::vector<WindowOutcome>> reference =
      reference_outcomes();

  // Runs only on the ingest/flush caller (this thread).
  class CountingSink final : public engine::DetectionSink {
   public:
    void on_detections(std::span<const Detection> detections) override {
      windows += detections.size();
      for (const Detection& d : detections) {
        outcomes[d.session_id].push_back(outcome_of(d));
      }
    }
    std::size_t windows = 0;
    std::map<std::uint64_t, std::vector<WindowOutcome>> outcomes;
  };

  struct Topology {
    bool threaded;
    std::size_t shards;
  };
  const Topology topologies[] = {
      {false, 1}, {false, 2}, {true, 1}, {true, 2}};
  for (const Topology& topology : topologies) {
    SCOPED_TRACE(std::string(topology.threaded ? "threads" : "inline") +
                 " x " + std::to_string(topology.shards) + " shards");
    const platform::SocketAddress address = loopback_address();
    auto server = make_server(address, topology.shards, topology.threaded);
    auto service = make_remote_service(address, topology.shards);
    CountingSink sink;
    service->set_detection_sink(&sink);

    std::vector<SessionHandle> handles;
    for (std::size_t s = 0; s < k_sessions; ++s) {
      handles.push_back(service->create_session());
    }
    const SessionHandle padding = service->create_session();

    // The inline backend classifies only at a flush barrier, which polls
    // whole shards. A second tenant whose sessions cover every shard
    // flushes once per round; this service never flushes until the end.
    ShardClient tenant;
    if (!topology.threaded) {
      tenant.connect(address);
      std::vector<bool> covered(topology.shards, false);
      for (std::uint64_t key = 0;
           std::find(covered.begin(), covered.end(), false) != covered.end();
           ++key) {
        const std::uint64_t server_session =
            tenant.open_session(key, key, engine::SessionConfig{});
        covered[SessionHandle{server_session}.shard()] = true;
      }
    }
    const auto tick = [&] {
      if (!topology.threaded) {
        std::vector<Detection> none;
        tenant.flush(none);
      }
    };

    std::size_t bytes = 0;
    const std::size_t rounds = stream_samples(*background_record_) / k_chunk;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t s = 0; s < k_sessions; ++s) {
        const signal::EegRecord& record = record_for(s);
        if ((round + 1) * k_chunk <= stream_samples(record)) {
          service->ingest(handles[s],
                          chunk_views(record, round * k_chunk, k_chunk));
          bytes += k_chunk * record.channel_count() * sizeof(Real);
        }
      }
      tick();
    }
    EXPECT_GT(bytes, k_ingest_batch_bytes);
    // A slow server (sanitizers) may not have classified anything by the
    // last batch send: keep sending batches on a padding session until
    // the client has read windows.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (std::size_t round = 0;
         sink.windows == 0 && std::chrono::steady_clock::now() < deadline;
         ++round) {
      tick();
      const std::size_t offset =
          (round % (stream_samples(*background_record_) / k_chunk)) * k_chunk;
      service->ingest(padding, chunk_views(*background_record_, offset, k_chunk));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(sink.windows, 0u) << "no window reached the sink before the flush";

    service->flush();
    for (std::size_t s = 0; s < k_sessions; ++s) {
      SCOPED_TRACE("session " + std::to_string(s));
      EXPECT_EQ(sink.outcomes[handles[s].value], reference[s]);
    }
    if (!topology.threaded) {
      tenant.close();
    }
    service->stop();
    server->stop();
  }
}

TEST_F(NetLoopback, RefusedChunkSurfacesTypedFromIngestOrFlush) {
  // An error frame the client reads while a batch goes out is thrown by
  // the call that read it — an ingest that sent its batch, or the flush
  // — with the server's exception type. It is thrown once, and the
  // connection keeps serving.
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, false);
  // The refused session's chunks reach the wire with one channel: past
  // the client service's checks (which the backend trusts), so only the
  // server refuses them.
  auto narrowing = std::make_unique<ChannelNarrowingBackend>(
      std::make_unique<RemoteBackend>(address));
  ChannelNarrowingBackend& backend = *narrowing;
  ServiceConfig config;
  config.engine = screened_config();
  auto service = std::make_unique<DetectionService>(*fleet_, config,
                                                    std::move(narrowing));
  const SessionHandle refused = service->create_session();
  const SessionHandle served = service->create_session();
  backend.narrow(refused);

  std::size_t refusals = 0;
  const auto count_refusal = [&](const auto& call) {
    try {
      call();
    } catch (const InvalidArgument&) {
      ++refusals;
    }
  };
  const signal::EegRecord& record = record_for(0);
  count_refusal(
      [&] { service->ingest(refused, chunk_views(record, 0, k_chunk)); });
  // Several batches' worth: the batch sends read what the server pushed.
  constexpr std::size_t k_rounds = 8;
  for (std::size_t round = 0; round < k_rounds; ++round) {
    count_refusal([&] {
      service->ingest(served, chunk_views(record, round * k_chunk, k_chunk));
    });
  }
  count_refusal([&] { service->flush(); });
  EXPECT_EQ(refusals, 1u);

  // Still serving: every served chunk went out (a throwing ingest had
  // sent its batch before it read the error), so the next flush delivers
  // all of the served session's windows, in order.
  EXPECT_NO_THROW(service->flush());
  std::vector<Detection> drained;
  service->drain(drained);
  const std::size_t window = 1024;
  const std::size_t hop = 256;
  const std::size_t expected = (k_rounds * k_chunk - window) / hop + 1;
  ASSERT_EQ(drained.size(), expected);
  for (std::size_t w = 0; w < expected; ++w) {
    EXPECT_EQ(drained[w].session_id, served.value);
    EXPECT_EQ(drained[w].window_index, w);
  }
  service->stop();
  server->stop();
}

TEST_F(NetLoopback, IngestAfterCloseIsSilentOnEveryBackend) {
  // DetectionService::close_session promises that later ingest() calls
  // for the handle discard their chunks. In process, Engine::ingest drops
  // them; the remote backend must not send them for the server to
  // refuse. Several batches' worth of chunks go to the closed session
  // between the open one's, and nothing throws on any backend. A chunk
  // with zero samples per channel is a no-op on every backend too: it
  // goes to both sessions each round and changes no window.
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, 1, false);
  for (const char* backend : {"inline", "threads", "remote"}) {
    SCOPED_TRACE(backend);
    std::unique_ptr<DetectionService> service;
    if (std::string(backend) == "remote") {
      service = make_remote_service(address, 1);
    } else {
      ServiceConfig config;
      config.engine = screened_config();
      service = std::make_unique<DetectionService>(
          *fleet_, config,
          std::string(backend) == "threads"
              ? std::make_unique<engine::ThreadPoolBackend>()
              : nullptr);
    }
    const SessionHandle closed = service->create_session();
    const SessionHandle open = service->create_session();
    service->close_session(closed);
    const signal::EegRecord& record = record_for(0);

    const auto empty = chunk_views(record, 0, 0);
    constexpr std::size_t k_rounds = 8;
    for (std::size_t round = 0; round < k_rounds; ++round) {
      const auto views = chunk_views(record, round * k_chunk, k_chunk);
      EXPECT_NO_THROW(service->ingest(closed, views));
      EXPECT_NO_THROW(service->ingest(open, empty));
      EXPECT_NO_THROW(service->ingest(open, views));
      EXPECT_NO_THROW(service->ingest(closed, empty));
    }
    EXPECT_NO_THROW(service->flush());
    std::vector<Detection> drained;
    service->drain(drained);
    const std::size_t expected = (k_rounds * k_chunk - 1024) / 256 + 1;
    ASSERT_EQ(drained.size(), expected);
    for (std::size_t w = 0; w < expected; ++w) {
      EXPECT_EQ(drained[w].session_id, open.value);
      EXPECT_EQ(drained[w].window_index, w);
    }
    service->stop();
  }
  server->stop();
}

TEST_F(NetLoopback, OutputCapHoldsBackAClientThatNeverReads) {
  // A raw connection streams one-sample-hop chunks and never reads. The
  // server stops taking its frames once its queued output reaches
  // k_max_queued_output_bytes, so that output stays within the cap plus
  // what the shard queues already held, and the connection's sends start
  // to block. Other connections keep being served. Two shards halve the
  // time to overrun the cap.
  constexpr std::size_t k_shards = 2;
  const platform::SocketAddress address = loopback_address();
  auto server = make_server(address, k_shards, true);

  // A well-behaved connection, first used to find a routing key per
  // shard for the hog (which never reads its open-session acks).
  ShardClient good;
  good.connect(address);
  std::vector<std::uint64_t> shard_keys(k_shards, ~0ull);
  for (std::uint64_t key = 100;
       std::find(shard_keys.begin(), shard_keys.end(), ~0ull) !=
       shard_keys.end();
       ++key) {
    const std::uint64_t server_session =
        good.open_session(key, key, engine::SessionConfig{});
    shard_keys[SessionHandle{server_session}.shard()] = key;
    good.close_session(key);
  }

  constexpr std::size_t k_hog_chunk = 16;  // samples: 16 windows a chunk
  // Past the cap, each shard still holds the batch its worker popped (a
  // full queue at most) and a full queue behind it, and the loop may be
  // pushing one more chunk; each batch becomes one detection frame. The
  // rest is slack for the hello and open-session acks.
  const std::size_t queue_capacity = engine::ThreadPoolConfig{}.queue_capacity;
  const std::size_t in_flight =
      (k_shards * 2 * queue_capacity + 1) * k_hog_chunk *
          sizeof(WireDetection) +
      k_shards * 3 * (sizeof(FrameHeader) + sizeof(DetectionsPayload));
  const std::size_t bound = k_max_queued_output_bytes + in_flight + 1024;

  platform::Socket hog = platform::Socket::connect(address);
  hog.set_nonblocking(true);
  std::vector<std::byte> out;
  std::uint64_t sequence = 1;
  encode_hello(out, sequence++, HelloPayload{});
  for (std::size_t shard = 0; shard < k_shards; ++shard) {
    encode_open_session(out, shard, sequence++,
                        make_open_session(shard_keys[shard], one_sample_hop()));
  }

  const signal::EegRecord& record = *background_record_;
  const std::size_t usable = record.length_samples() - k_hog_chunk;
  std::size_t offset = 0;
  std::size_t chunks = 0;
  std::size_t peak = 0;
  bool reached_cap = false;
  bool blocked_after_cap = false;
  const auto sample_queued = [&] {
    const std::size_t queued = server->queued_output_bytes();
    peak = std::max(peak, queued);
    reached_cap |= queued >= k_max_queued_output_bytes;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(240);
  while (!blocked_after_cap && std::chrono::steady_clock::now() < deadline) {
    if (offset == out.size()) {
      out.clear();
      offset = 0;
      // Round robin over the shards; each session sees consecutive data.
      const std::size_t start = (chunks / k_shards) * k_hog_chunk % usable;
      encode_chunk(out, chunks % k_shards, sequence++,
                   chunk_views(record, start, k_hog_chunk));
      ++chunks;
    }
    bool would_block = false;
    offset += hog.send_some(std::span<const std::byte>(out).subspan(offset),
                            &would_block);
    sample_queued();
    if (would_block) {
      blocked_after_cap = reached_cap;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(reached_cap) << "the hog never overran the output cap";
  ASSERT_TRUE(blocked_after_cap) << "the hog's sends never blocked";

  // The well-behaved connection keeps getting flush acks (its barrier
  // waits behind the hog's queued chunks, which still drain).
  good.open_session(1, 1, engine::SessionConfig{});
  for (std::size_t round = 0; round < 3; ++round) {
    good.ingest(1, chunk_views(record, round * k_chunk, k_chunk));
    std::vector<Detection> detections;
    good.flush(detections);
    sample_queued();
  }
  // The shard queues have drained into the hog's outbox by now.
  for (int i = 0; i < 50; ++i) {
    sample_queued();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(peak, bound);

  // A RemoteBackend connection the server holds back: it streams
  // one-sample-hop chunks and stops, and the windows the shards then
  // produce outgrow the socket buffers plus the cap. Then one large
  // ingest (several frames) outgrows the client's socket buffer while the
  // server reads none of it. It completes only because the client reads
  // while its send buffer is full; a send that cannot read would wait
  // for good.
  const std::size_t hog_queued = server->queued_output_bytes();
  auto service = make_remote_service(address, k_shards);
  std::vector<SessionHandle> streams(k_shards);
  std::vector<bool> covered(k_shards, false);
  for (std::uint64_t key = 0;
       std::find(covered.begin(), covered.end(), false) != covered.end();
       ++key) {
    const SessionHandle handle = service->create_session(key, one_sample_hop());
    if (!covered[handle.shard()]) {
      covered[handle.shard()] = true;
      streams[handle.shard()] = handle;
    }
  }
  const SessionHandle bulk = service->create_session();
  // Fewer chunks than a shard queue holds, so the loop never blocks on a
  // full queue and keeps writing output while the kernel takes it.
  constexpr std::size_t k_stream_chunk = 256;
  constexpr std::size_t k_stream_samples = 40 * k_stream_chunk;  // each
  static_assert(40 < engine::ThreadPoolConfig{}.queue_capacity);
  const std::size_t stream_windows = k_stream_samples - 65 + 1;
  const std::size_t classified = server->service().stats().windows_classified;
  for (std::size_t sample = 0; sample < k_stream_samples;
       sample += k_stream_chunk) {
    for (const SessionHandle handle : streams) {
      service->ingest(handle, chunk_views(record, sample, k_stream_chunk));
    }
  }
  const auto stream_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(240);
  while (server->service().stats().windows_classified <
             classified + k_shards * stream_windows &&
         std::chrono::steady_clock::now() < stream_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server->service().stats().windows_classified,
            classified + k_shards * stream_windows);
  ASSERT_GE(server->queued_output_bytes(),
            hog_queued + k_max_queued_output_bytes)
      << "the client's unread output stayed under the cap";

  constexpr std::size_t k_tiles = 4;
  std::vector<std::vector<Real>> tiled(record.channel_count());
  for (std::size_t c = 0; c < tiled.size(); ++c) {
    for (std::size_t t = 0; t < k_tiles; ++t) {
      tiled[c].insert(tiled[c].end(), record.channel(c).samples.begin(),
                      record.channel(c).samples.end());
    }
  }
  std::vector<std::span<const Real>> large(tiled.begin(), tiled.end());
  ASSERT_GT(large.front().size() * large.size() * sizeof(Real),
            2 * k_max_payload_bytes);  // at least three chunk frames
  service->ingest(bulk, large);
  service->flush();

  std::vector<Detection> drained;
  service->drain(drained);
  std::map<std::uint64_t, std::vector<std::size_t>> indices;
  for (const Detection& d : drained) {
    indices[d.session_id].push_back(d.window_index);
  }
  const auto expect_every_window = [&](SessionHandle handle,
                                       std::size_t windows) {
    const std::vector<std::size_t>& got = indices[handle.value];
    ASSERT_EQ(got.size(), windows);
    for (std::size_t w = 0; w < windows; ++w) {
      EXPECT_EQ(got[w], w);
    }
  };
  for (const SessionHandle handle : streams) {
    expect_every_window(handle, stream_windows);
  }
  expect_every_window(bulk, (large.front().size() - 1024) / 256 + 1);

  good.close();
  service->stop();
  hog.close();
  server->stop();
}

TEST_F(NetLoopback, TcpLoopbackWithEphemeralPortServes) {
  // Same wire over TCP: bind port 0, read the kernel's choice back.
  auto server = make_server(platform::SocketAddress::parse("tcp:127.0.0.1:0"),
                            1, false);
  const platform::SocketAddress address = server->address();
  EXPECT_NE(address.port, 0);

  auto service = make_remote_service(address, 1);
  const SessionHandle handle = service->create_session();
  const signal::EegRecord& record = record_for(0);
  service->ingest(handle, chunk_views(record, 0, k_chunk * 4));
  service->flush();
  std::vector<Detection> detections;
  service->drain(detections);
  EXPECT_FALSE(detections.empty());
  service->stop();
  server->stop();
}

}  // namespace
}  // namespace esl::net
