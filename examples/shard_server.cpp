// Standalone shard-server process: the serving front door from
// net/shard_server.hpp as a runnable binary.
//
// Trains the fleet detector (synthesized cohort, same recipe as the
// other examples), mounts an optional model registry directory, then
// listens for net/wire.hpp clients until SIGINT/SIGTERM. Any number of
// clients can connect concurrently — a RemoteBackend-driven
// DetectionService (see net/client.hpp) or another process speaking the
// frame protocol.
//
//   ./shard_server [--listen ADDR] [--shards N]
//                  [--backend inline|threads] [--registry DIR]
//
//   ADDR is "unix:PATH" or "tcp:HOST:PORT" (port 0 = ephemeral, the
//   resolved address is printed). Default: tcp:127.0.0.1:0.
//
// Serve on a fixed port:
//   ./shard_server --listen tcp:127.0.0.1:7700 --backend threads
// then build the client process's DetectionService on
//   std::make_unique<net::RemoteBackend>(
//       platform::SocketAddress::parse("tcp:127.0.0.1:7700"))
// (README.md, "Cross-process serving", shows the whole client).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/realtime_detector.hpp"
#include "ml/dataset.hpp"
#include "net/shard_server.hpp"
#include "sim/cohort.hpp"

namespace {

using namespace esl;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  std::string listen = "tcp:127.0.0.1:0";
  std::size_t shards = 2;
  bool threaded = true;
  std::string registry;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      listen = value();
    } else if (arg == "--shards") {
      shards = static_cast<std::size_t>(std::atol(value()));
    } else if (arg == "--backend") {
      const std::string backend = value();
      if (backend != "inline" && backend != "threads") {
        std::fprintf(stderr, "unknown --backend %s\n", backend.c_str());
        return 2;
      }
      threaded = backend == "threads";
    } else if (arg == "--registry") {
      registry = value();
    } else {
      std::fprintf(stderr,
                   "usage: shard_server [--listen ADDR] [--shards N] "
                   "[--backend inline|threads] [--registry DIR]\n");
      return 2;
    }
  }

  // Fleet model: trained on one labeled record of the synthesized
  // cohort, exactly like the in-process examples. A real deployment
  // would load a registry artifact instead; the point here is the
  // serving tier, not the training recipe.
  std::printf("training fleet detector...\n");
  const sim::CohortSimulator simulator;
  const auto events = simulator.events_for_patient(4);
  const signal::EegRecord train_record =
      simulator.synthesize_sample(events[0], 0, 500.0, 600.0);
  ml::Dataset train =
      core::build_window_dataset(train_record, train_record.seizures());
  Rng rng(1);
  auto fleet = std::make_shared<core::RealtimeDetector>();
  fleet->fit(ml::balance_classes(train, rng), 7);

  net::ShardServerConfig config;
  config.address = platform::SocketAddress::parse(listen);
  config.service.shards = shards;
  config.threaded_backend = threaded;
  config.registry_directory = registry;
  net::ShardServer server(fleet, config);
  server.start();
  std::printf("serving %zu shards (%s backend%s%s) on %s\n", shards,
              threaded ? "threads" : "inline",
              registry.empty() ? "" : ", registry ", registry.c_str(),
              server.address().to_string().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop.load(std::memory_order_relaxed) && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  std::printf("stopping...\n");
  server.stop();
  const engine::EngineStats stats = server.service().stats();
  std::printf("served %zu sessions, %zu windows classified, %zu alarms\n",
              server.service().session_count(), stats.windows_classified,
              stats.alarms);
  return 0;
}
