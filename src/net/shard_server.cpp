#include "net/shard_server.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

#if ESL_HAVE_POSIX_SOCKETS
#include <poll.h>
#endif

namespace esl::net {

namespace {

/// Input read from one connection per loop pass. A peer that keeps its
/// socket full would otherwise grow the input buffer without bound
/// before a single frame is handled.
constexpr std::size_t k_max_read_per_pass = 64 * 1024;

WireErrorCode code_of(const Error& error) {
  if (dynamic_cast<const InvalidArgument*>(&error) != nullptr) {
    return WireErrorCode::kInvalidArgument;
  }
  if (dynamic_cast<const DataError*>(&error) != nullptr) {
    return WireErrorCode::kDataError;
  }
  if (dynamic_cast<const LogicError*>(&error) != nullptr) {
    return WireErrorCode::kLogicError;
  }
  return WireErrorCode::kInternal;
}

std::unique_ptr<engine::ExecutionBackend> make_backend(bool threaded) {
  if (threaded) {
    return std::make_unique<engine::ThreadPoolBackend>();
  }
  return std::make_unique<engine::InlineBackend>();
}

}  // namespace

ShardServer::ShardServer(
    std::shared_ptr<const core::RealtimeDetector> fleet_model,
    ShardServerConfig config)
    : config_(std::move(config)), sink_(*this) {
  service_ = std::make_unique<engine::DetectionService>(
      std::move(fleet_model), config_.service,
      make_backend(config_.threaded_backend));
  service_->set_detection_sink(&sink_);
  if (!config_.registry_directory.empty()) {
    engine::RegistryConfig registry_config;
    registry_config.directory = config_.registry_directory;
    registry_ = std::make_unique<engine::ModelRegistry>(registry_config);
  }
}

ShardServer::~ShardServer() {
  try {
    stop();
  } catch (...) {
    // Teardown failures (a worker error surfacing in service stop) have
    // nowhere to go from a destructor.
  }
}

void ShardServer::start() {
  expects(!running(), "ShardServer: already started");
  listener_ = platform::ListenSocket::listen(config_.address);
  // The loop trusts poll() for readiness but must never sleep inside
  // accept() on a spurious wakeup.
  listener_.set_nonblocking(true);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { run(); });
}

void ShardServer::stop() {
  if (!running()) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  wake_.wake();
  if (loop_.joinable()) {
    loop_.join();  // run()'s exit path has torn down routes_/connections_
  }
  listener_.close();
  running_.store(false, std::memory_order_release);
  service_->stop();
}

void ShardServer::Sink::on_detections(
    std::span<const engine::Detection> detections) {
  // Translate server handles back to client session ids, accumulating
  // into each destination connection's reusable batcher, then encode
  // one kDetections frame per connection straight into its outbox — a
  // warm path with no per-call heap allocation (pinned by
  // tests/net/test_net_alloc.cpp). The whole pass holds route_mutex_,
  // which is what keeps a Connection alive here: the loop erases a
  // dropped connection's routes under the same mutex before freeing it.
  bool queued = false;
  {
    MutexLock lock(server_.route_mutex_);
    server_.sink_touched_.clear();
    for (const engine::Detection& detection : detections) {
      const auto route = server_.routes_.find(detection.session_id);
      if (route == server_.routes_.end()) {
        continue;  // the owning connection is gone; drop on the floor
      }
      Connection* connection = route->second.connection;
      if (connection->batcher.empty()) {
        server_.sink_touched_.push_back(connection);
      }
      connection->batcher.add(detection, route->second.client_id);
    }
    for (Connection* connection : server_.sink_touched_) {
      MutexLock outbox(connection->outbox_mutex);
      const std::size_t before = connection->outbox.size();
      connection->batcher.encode_into(connection->outbox, 0);
      connection->queued.fetch_add(connection->outbox.size() - before,
                                   std::memory_order_relaxed);
    }
    queued = !server_.sink_touched_.empty();
  }
  if (queued) {
    server_.wake_.wake();
  }
}

void ShardServer::queue_error(Connection& connection, std::uint64_t sequence,
                              WireErrorCode code, std::string_view message) {
  queue_frame(connection, [&](std::vector<std::byte>& out) {
    encode_error(out, sequence, code, message);
  });
}

void ShardServer::complete_flush(std::uint64_t connection_id,
                                 std::uint64_t sequence) {
  // Runs on whichever thread confirmed the barrier. The connection may
  // have died while the barrier was in flight: look it up by id under
  // route_mutex_ (the loop unregisters ids there before freeing), and
  // queue the ack only into a live outbox.
  MutexLock lock(route_mutex_);
  const auto it = live_.find(connection_id);
  if (it != live_.end()) {
    queue_frame(*it->second, [&](std::vector<std::byte>& out) {
      encode_flush_ack(out, sequence);
    });
  }
}

std::size_t ShardServer::queued_output_bytes() const {
  MutexLock lock(route_mutex_);
  std::size_t total = 0;
  for (const auto& [id, connection] : live_) {
    (void)id;
    total += connection->queued.load(std::memory_order_relaxed);
  }
  return total;
}

#if ESL_HAVE_POSIX_SOCKETS

void ShardServer::run() {
  std::vector<pollfd> fds;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    // accept_pending() below may grow connections_; only this snapshot
    // has a pollfd, so only this prefix may be walked afterwards.
    const std::size_t polled = connections_.size();
    int timeout_ms = -1;
    for (const auto& connection : connections_) {
      // Over the output cap, the connection's input waits in the socket
      // buffers. Back under it, frames left buffered by a stalled pass
      // are handled without waiting for new input.
      const bool capped = over_cap(*connection);
      short events = capped ? 0 : POLLIN;
      if (connection->stalled && !capped) {
        timeout_ms = 0;
      }
      if (wants_output(*connection)) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{connection->socket.fd(), events, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      continue;  // EINTR
    }
    if ((fds[0].revents & POLLIN) != 0) {
      wake_.drain();
    }
    if ((fds[1].revents & POLLIN) != 0) {
      accept_pending();
    }
    // Walk connections back to front so drops do not disturb the
    // pollfd <-> connection correspondence of earlier entries. Freshly
    // accepted connections (indices >= polled) wait for the next pass.
    for (std::size_t i = polled; i-- > 0;) {
      Connection& connection = *connections_[i];
      const short revents = fds[i + 2].revents;
      if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (revents & POLLIN) == 0) {
        drop_connection(i);
        continue;
      }
      if (!service_input(connection, (revents & POLLIN) != 0)) {
        drop_connection(i);
        continue;
      }
      if (wants_output(connection) && !service_output(connection)) {
        drop_connection(i);
        continue;
      }
      if (connection.closing && !wants_output(connection)) {
        drop_connection(i);  // goodbye fully written
      }
    }
  }
  // Orderly loop exit: erase the sink routes under the mutex before
  // freeing the connections — the drop_connection invariant. Backend
  // workers are still delivering detections until stop() joins them; a
  // sink call racing this teardown either sees live routes (and queues
  // to outboxes that are still alive) or none, never a freed Connection.
  {
    MutexLock lock(route_mutex_);
    routes_.clear();
    live_.clear();
  }
  connections_.clear();
}

#else

void ShardServer::run() {}  // start() cannot succeed without sockets

#endif

void ShardServer::accept_pending() {
  while (true) {
    platform::Socket accepted = listener_.accept();
    if (!accepted.valid()) {
      return;
    }
    accepted.set_nonblocking(true);
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(accepted);
    connection->id = next_connection_id_++;
    {
      MutexLock lock(route_mutex_);
      live_[connection->id] = connection.get();
    }
    connections_.push_back(std::move(connection));
  }
}

bool ShardServer::service_input(Connection& connection, bool readable) {
  std::byte buffer[16384];
  // Read only once the last pass handled every complete frame, and at
  // most k_max_read_per_pass: the input buffer then holds one pass plus
  // a partial frame. poll keeps reporting what is left.
  std::size_t budget =
      readable && !connection.stalled ? k_max_read_per_pass : 0;
  while (budget > 0) {
    bool would_block = false;
    std::size_t got = 0;
    try {
      got = connection.socket.recv_some(
          std::span<std::byte>(buffer, std::min(sizeof(buffer), budget)),
          &would_block);
    } catch (const Error&) {
      return false;  // reset by peer
    }
    if (would_block) {
      break;
    }
    if (got == 0) {
      return false;  // EOF
    }
    connection.incoming.append(std::span<const std::byte>(buffer, got));
    budget -= got;
  }
  try {
    FrameView view;
    connection.stalled = false;
    // Stop at the goodbye (ignore anything framed after it) and at the
    // output cap (the rest waits until the client drains its output).
    while (!connection.closing) {
      if (over_cap(connection)) {
        connection.stalled = true;
        break;
      }
      if (!connection.incoming.next(view)) {
        break;
      }
      handle_frame(connection, view);
    }
  } catch (const Error&) {
    // Malformed bytes at the stream front: the connection is poisoned
    // (no resynchronization) — drop it.
    return false;
  }
  return true;
}

void ShardServer::handle_frame(Connection& connection, const FrameView& view) {
  const auto type = static_cast<FrameType>(view.header.type);
  const std::uint64_t sequence = view.header.sequence;

  if (type == FrameType::kHello) {
    decode_hello(view);  // structural check; nonce echoed below
    connection.saw_hello = true;
    HelloAckPayload ack;
    ack.nonce = decode_hello(view).nonce;
    ack.shard_count = static_cast<std::uint32_t>(service_->shard_count());
    ack.flags = registry_ != nullptr ? k_hello_flag_registry : 0;
    queue_frame(connection, [&](std::vector<std::byte>& out) {
      encode_hello_ack(out, sequence, ack);
    });
    return;
  }
  if (!connection.saw_hello) {
    // Protocol violation, not a request failure: poison the stream so
    // the caller drops the connection.
    throw DataError("ShardServer: first frame must be a hello");
  }

  switch (type) {
    case FrameType::kOpenSession: {
      const std::uint64_t client_id = view.header.session_id;
      if (connection.sessions.count(client_id) != 0) {
        queue_error(connection, sequence, WireErrorCode::kInvalidArgument,
                    "session id is already open on this connection");
        return;
      }
      const OpenSessionPayload payload = decode_open_session(view);
      engine::SessionHandle handle;
      try {
        handle = service_->create_session(payload.routing_key,
                                          session_config_of(payload));
      } catch (const Error& error) {
        queue_error(connection, sequence, code_of(error), error.what());
        return;
      }
      connection.sessions.emplace(client_id, handle);
      {
        MutexLock lock(route_mutex_);
        routes_[handle.value] = Route{&connection, client_id};
      }
      OpenSessionAckPayload ack;
      ack.server_session = handle.value;
      queue_frame(connection, [&](std::vector<std::byte>& out) {
        encode_open_session_ack(out, client_id, sequence, ack);
      });
      return;
    }
    case FrameType::kChunk: {
      const auto session = connection.sessions.find(view.header.session_id);
      if (session == connection.sessions.end()) {
        queue_error(connection, sequence, WireErrorCode::kInvalidArgument,
                    "chunk addresses a session this connection never opened");
        return;
      }
      const ChunkView chunk = decode_chunk(view);
      chunk_scratch_.clear();
      for (std::uint32_t c = 0; c < chunk.channel_count; ++c) {
        chunk_scratch_.push_back(chunk.channel(c));
      }
      try {
        service_->ingest(session->second, chunk_scratch_);
      } catch (const Error& error) {
        queue_error(connection, sequence, code_of(error), error.what());
      }
      return;
    }
    case FrameType::kLabel: {
      const auto session = connection.sessions.find(view.header.session_id);
      if (session == connection.sessions.end()) {
        queue_error(connection, sequence, WireErrorCode::kInvalidArgument,
                    "label addresses a session this connection never opened");
        return;
      }
      try {
        const signal::Interval interval =
            service_->patient_trigger(session->second);
        LabelAckPayload ack;
        ack.onset_s = interval.onset;
        ack.offset_s = interval.offset;
        queue_frame(connection, [&](std::vector<std::byte>& out) {
          encode_label_ack(out, view.header.session_id, sequence, ack);
        });
      } catch (const Error& error) {
        queue_error(connection, sequence, code_of(error), error.what());
      }
      return;
    }
    case FrameType::kStatsRequest: {
      const StatsPayload stats = to_wire(service_->stats());
      queue_frame(connection, [&](std::vector<std::byte>& out) {
        encode_stats(out, sequence, stats);
      });
      return;
    }
    case FrameType::kSwapModel: {
      const std::string_view key = decode_swap_model(view);
      const auto session = connection.sessions.find(view.header.session_id);
      if (session == connection.sessions.end()) {
        queue_error(connection, sequence, WireErrorCode::kInvalidArgument,
                    "model swap addresses a session this connection never "
                    "opened");
        return;
      }
      if (registry_ == nullptr) {
        queue_error(connection, sequence, WireErrorCode::kDataError,
                    "server has no model registry mounted");
        return;
      }
      try {
        service_->swap_model(session->second, *registry_, key);
        queue_frame(connection, [&](std::vector<std::byte>& out) {
          encode_swap_model_ack(out, view.header.session_id, sequence);
        });
      } catch (const Error& error) {
        queue_error(connection, sequence, code_of(error), error.what());
      }
      return;
    }
    case FrameType::kFlush: {
      // Scoped, asynchronous barrier over this connection's sessions
      // only: the loop keeps serving other connections while the
      // covered shards drain. The completion queues the kFlushAck, so
      // the ack still lands behind every detection the barrier covers
      // (each covered worker delivers to the sink before confirming its
      // leg) — the ordering clients rely on.
      flush_scratch_.clear();
      for (const auto& [client_id, handle] : connection.sessions) {
        (void)client_id;
        flush_scratch_.push_back(handle);
      }
      const std::uint64_t connection_id = connection.id;
      try {
        service_->flush_sessions_async(
            flush_scratch_, [this, connection_id, sequence] {
              complete_flush(connection_id, sequence);
            });
      } catch (const Error& error) {
        queue_error(connection, sequence, code_of(error), error.what());
      }
      return;
    }
    case FrameType::kCloseSession: {
      const std::uint64_t client_id = view.header.session_id;
      const auto session = connection.sessions.find(client_id);
      if (session == connection.sessions.end()) {
        queue_error(connection, sequence, WireErrorCode::kInvalidArgument,
                    "close addresses a session this connection never opened");
        return;
      }
      const engine::SessionHandle handle = session->second;
      try {
        service_->close_session(handle);
      } catch (const Error& error) {
        queue_error(connection, sequence, code_of(error), error.what());
        return;
      }
      {
        MutexLock lock(route_mutex_);
        routes_.erase(handle.value);
      }
      connection.sessions.erase(session);
      queue_frame(connection, [&](std::vector<std::byte>& out) {
        encode_close_session_ack(out, client_id, sequence);
      });
      return;
    }
    case FrameType::kClose: {
      queue_frame(connection, [&](std::vector<std::byte>& out) {
        encode_close_ack(out, sequence);
      });
      connection.closing = true;
      return;
    }
    default:
      // Server-bound streams never carry acks/detections/stats replies;
      // poison the stream.
      throw DataError("ShardServer: frame type is not valid from a client");
  }
}

bool ShardServer::wants_output(const Connection& connection) {
  return connection.queued.load(std::memory_order_relaxed) > 0;
}

bool ShardServer::over_cap(const Connection& connection) {
  return connection.queued.load(std::memory_order_relaxed) >=
         k_max_queued_output_bytes;
}

bool ShardServer::service_output(Connection& connection) {
  // Pull what the sinks queued into loop-private staging first.
  {
    MutexLock lock(connection.outbox_mutex);
    if (!connection.outbox.empty()) {
      if (connection.sent == connection.sending.size()) {
        connection.sending.clear();
        connection.sent = 0;
      }
      connection.sending.insert(connection.sending.end(),
                                connection.outbox.begin(),
                                connection.outbox.end());
      connection.outbox.clear();
    }
  }
  while (connection.sent < connection.sending.size()) {
    bool would_block = false;
    std::size_t wrote = 0;
    try {
      wrote = connection.socket.send_some(
          std::span<const std::byte>(connection.sending)
              .subspan(connection.sent),
          &would_block);
    } catch (const Error&) {
      return false;  // peer is gone
    }
    if (would_block) {
      return true;  // poll will report POLLOUT when there is room
    }
    connection.sent += wrote;
    connection.queued.fetch_sub(wrote, std::memory_order_relaxed);
  }
  connection.sending.clear();
  connection.sent = 0;
  return true;
}

void ShardServer::drop_connection(std::size_t index) {
  Connection& connection = *connections_[index];
  {
    // Erase the sink routes and the liveness entry under the mutex
    // before freeing: a sink call or flush completion holding
    // route_mutex_ either still sees the connection (and queues to a
    // live outbox) or sees nothing — never a dangling Connection.
    MutexLock lock(route_mutex_);
    for (const auto& [client_id, handle] : connection.sessions) {
      routes_.erase(handle.value);
    }
    live_.erase(connection.id);
  }
  // Reap the dropped client's server-side sessions so engine slots do
  // not leak across client churn. Outside route_mutex_: close_session
  // takes the shard mutex, and a shard worker holding its shard mutex
  // takes route_mutex_ in the sink — the inverse order would deadlock.
  for (const auto& [client_id, handle] : connection.sessions) {
    try {
      service_->close_session(handle);
    } catch (const Error&) {
      // Best-effort teardown: a session already gone is not an event.
    }
  }
  connections_.erase(connections_.begin() +
                     static_cast<std::ptrdiff_t>(index));
}

}  // namespace esl::net
