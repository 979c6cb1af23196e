#include "net/client.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace esl::net {

namespace {

/// Rethrows a server-reported error as the exception type the
/// equivalent in-process call would have thrown, prefixed so the caller
/// can tell the failing process apart.
[[noreturn]] void rethrow_remote(WireErrorCode code,
                                 std::string_view message) {
  const std::string what = "remote: " + std::string(message);
  switch (code) {
    case WireErrorCode::kInvalidArgument:
      throw InvalidArgument(what);
    case WireErrorCode::kDataError:
      throw DataError(what);
    case WireErrorCode::kLogicError:
      throw LogicError(what);
    case WireErrorCode::kInternal:
      break;
  }
  throw Error(what);
}

}  // namespace

void ShardClient::connect(const platform::SocketAddress& address) {
  expects(!socket_.valid(), "ShardClient: already connected");
  socket_ = platform::Socket::connect(address);
  // Only wait() blocks from here on: a send whose buffer is full reads
  // what the server pushed instead of sitting in the kernel.
  socket_.set_nonblocking(true);
  incoming_.clear();
  pending_.clear();
  error_.reset();
  HelloPayload hello;
  hello.nonce = 0x65676C617373ull;  // "eglass": a fixed probe value
  outgoing_.clear();
  const std::uint64_t sequence = next_sequence_++;
  encode_hello(outgoing_, sequence, hello);
  send_frame();
  const FrameView view = await(FrameType::kHelloAck, sequence);
  const HelloAckPayload ack = decode_hello_ack(view);
  expects(ack.nonce == hello.nonce,
          "ShardClient: hello ack nonce does not match");
  shard_count_ = ack.shard_count;
  flags_ = ack.flags;
}

std::uint64_t ShardClient::open_session(std::uint64_t client_id,
                                        std::uint64_t routing_key,
                                        const engine::SessionConfig& config) {
  expects(socket_.valid(), "ShardClient: not connected");
  const std::uint64_t sequence = next_sequence_++;
  encode_open_session(outgoing_, client_id, sequence,
                      make_open_session(routing_key, config));
  send_frame();
  return decode_open_session_ack(await(FrameType::kOpenSessionAck, sequence))
      .server_session;
}

void ShardClient::ingest(std::uint64_t client_id,
                         const std::vector<std::span<const Real>>& chunk) {
  expects(socket_.valid(), "ShardClient: not connected");
  encode_chunk(outgoing_, client_id, next_sequence_++, chunk);
  // Batch: one syscall carries many chunks. TCP ordering keeps every
  // batched chunk ahead of the next awaited request (which calls
  // send_frame() first), so barriers still cover everything sent-or-
  // batched before them. The batch send is also where the stream reads:
  // one recv per batch picks up the detections the server pushed since.
  if (outgoing_.size() >= k_ingest_batch_bytes) {
    send_frame();
    receive();
    throw_held_error();
  }
}

void ShardClient::take_detections(std::vector<engine::Detection>& out) {
  out.insert(out.end(), pending_.begin(), pending_.end());
  pending_.clear();
}

void ShardClient::flush(std::vector<engine::Detection>& out) {
  expects(socket_.valid(), "ShardClient: not connected");
  const std::uint64_t sequence = next_sequence_++;
  encode_flush(outgoing_, sequence);
  send_frame();
  await(FrameType::kFlushAck, sequence);
  // Everything the barrier produced (plus batches collected by earlier
  // calls) is in pending_ now.
  take_detections(out);
}

engine::EngineStats ShardClient::stats() {
  expects(socket_.valid(), "ShardClient: not connected");
  const std::uint64_t sequence = next_sequence_++;
  encode_stats_request(outgoing_, sequence);
  send_frame();
  return from_wire(decode_stats(await(FrameType::kStats, sequence)));
}

void ShardClient::swap_model(std::uint64_t client_id, std::string_view key) {
  expects(socket_.valid(), "ShardClient: not connected");
  const std::uint64_t sequence = next_sequence_++;
  encode_swap_model(outgoing_, client_id, sequence, key);
  send_frame();
  await(FrameType::kSwapModelAck, sequence);
}

void ShardClient::close_session(std::uint64_t client_id) {
  expects(socket_.valid(), "ShardClient: not connected");
  const std::uint64_t sequence = next_sequence_++;
  encode_close_session(outgoing_, client_id, sequence);
  send_frame();
  await(FrameType::kCloseSessionAck, sequence);
}

void ShardClient::close() {
  if (!socket_.valid()) {
    return;
  }
  try {
    const std::uint64_t sequence = next_sequence_++;
    encode_close(outgoing_, sequence);
    send_frame();
    await(FrameType::kCloseAck, sequence);
  } catch (...) {
    // A torn goodbye (server already gone) is not an error for close().
  }
  socket_.close();
  incoming_.clear();
  outgoing_.clear();
  pending_.clear();
  error_.reset();
}

void ShardClient::send_frame() {
  std::span<const std::byte> rest(outgoing_);
  while (!rest.empty()) {
    bool would_block = false;
    rest = rest.subspan(socket_.send_some(rest, &would_block));
    // A full send buffer may mean the server stopped reading until this
    // client drains its output: wait for either, and read while waiting.
    // The ack of a request being sent cannot arrive before the request
    // is out, so nothing read here is awaited.
    if (would_block && socket_.wait(true)) {
      receive();
    }
  }
  outgoing_.clear();
}

void ShardClient::receive() {
  read_available();
  decode(FrameType{}, 0, nullptr);
}

void ShardClient::read_available() {
  std::byte chunk[16384];
  for (;;) {
    bool would_block = false;
    const std::size_t got = socket_.recv_some(chunk, &would_block);
    if (would_block) {
      return;
    }
    if (got == 0) {
      throw DataError("ShardClient: server closed the connection");
    }
    incoming_.append(std::span<const std::byte>(chunk, got));
  }
}

bool ShardClient::decode(FrameType type, std::uint64_t sequence,
                         FrameView* ack) {
  // A held error stops decoding: the frames behind it belong to the
  // calls after the one that throws it.
  FrameView view;
  while (!error_.has_value() && incoming_.next(view)) {
    const auto got = static_cast<FrameType>(view.header.type);
    if (ack != nullptr && got == type && view.header.sequence == sequence) {
      *ack = view;
      return true;
    }
    if (got == FrameType::kDetections) {
      for (const WireDetection& wire : decode_detections(view)) {
        pending_.push_back(from_wire(wire));
      }
      continue;
    }
    if (got == FrameType::kError) {
      const ErrorView error = decode_error(view);
      error_ = HeldError{error.code, std::string(error.message)};
      continue;
    }
    // Anything else is a stale ack: a reply whose request the caller
    // already abandoned because an error frame overtook it.
  }
  return false;
}

void ShardClient::throw_held_error() {
  if (error_.has_value()) {
    const HeldError error = std::move(*error_);
    error_.reset();
    rethrow_remote(error.code, error.message);
  }
}

FrameView ShardClient::await(FrameType type, std::uint64_t sequence) {
  for (;;) {
    FrameView ack;
    const bool found = decode(type, sequence, &ack);
    throw_held_error();
    if (found) {
      return ack;  // valid until the next append to incoming_
    }
    socket_.wait(false);
    read_available();
  }
}

RemoteBackend::RemoteBackend(platform::SocketAddress address)
    : address_(std::move(address)) {}

RemoteBackend::~RemoteBackend() { stop(); }

void RemoteBackend::start(std::vector<std::unique_ptr<engine::Shard>>& shards,
                          engine::DetectionSink& sink) {
  // The mirror Engines validate locally but never classify.
  sink_ = &sink;
  MutexLock lock(mutex_);
  closed_.assign(shards.size(), {});
  client_.connect(address_);
}

void RemoteBackend::stop() {
  MutexLock lock(mutex_);
  client_.close();
}

void RemoteBackend::on_session_created(std::uint32_t shard_index,
                                       std::uint64_t local_id,
                                       std::uint64_t routing_key,
                                       const engine::SessionConfig& config) {
  // The packed handle value is the wire session id — the same value the
  // service's callers hold, so detections come back pre-addressed.
  const std::uint64_t client_id =
      engine::SessionHandle::pack(shard_index, local_id).value;
  MutexLock lock(mutex_);
  // A failed open pops the local slot and the next create reuses its id,
  // so the flag is (re)set here, not only appended.
  std::vector<bool>& closed = closed_[shard_index];
  if (closed.size() <= local_id) {
    closed.resize(local_id + 1);
  }
  closed[local_id] = false;
  client_.open_session(client_id, routing_key, config);
}

void RemoteBackend::close_session(engine::Shard& shard,
                                  std::uint64_t local_id) {
  // Tombstone the local mirror first (same lock order as
  // on_session_created: shard.mutex, then mutex_), then retire the
  // server-side session.
  {
    MutexLock lock(shard.mutex);
    shard.engine->remove_session(local_id);
  }
  const std::uint64_t client_id =
      engine::SessionHandle::pack(shard.index, local_id).value;
  MutexLock lock(mutex_);
  closed_[shard.index][local_id] = true;
  client_.close_session(client_id);
}

void RemoteBackend::ingest(engine::Shard& shard, std::uint64_t local_id,
                           const std::vector<std::span<const Real>>& chunk) {
  if (chunk.empty() || chunk.front().empty()) {
    return;  // no samples: a no-op in process, and no wire chunk to encode
  }
  const std::uint64_t client_id =
      engine::SessionHandle::pack(shard.index, local_id).value;
  MutexLock lock(mutex_);
  if (closed_[shard.index][local_id]) {
    return;  // as Engine::ingest: a closed session's chunks drain away
  }
  client_.ingest(client_id, chunk);
  scratch_.clear();
  client_.take_detections(scratch_);
  deliver();
}

void RemoteBackend::flush() {
  MutexLock lock(mutex_);
  scratch_.clear();
  client_.flush(scratch_);
  deliver();
}

void RemoteBackend::deliver() {
  if (!scratch_.empty() && sink_ != nullptr) {
    sink_->on_detections(scratch_);
  }
}

engine::EngineStats RemoteBackend::remote_stats() {
  MutexLock lock(mutex_);
  return client_.stats();
}

void RemoteBackend::remote_swap_model(engine::SessionHandle handle,
                                      std::string_view key) {
  MutexLock lock(mutex_);
  client_.swap_model(handle.value, key);
}

bool RemoteBackend::server_has_registry() {
  MutexLock lock(mutex_);
  return client_.has_registry();
}

}  // namespace esl::net
