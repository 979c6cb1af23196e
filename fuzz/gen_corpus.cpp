// Seed-corpus generator for the fuzz harnesses.
//
// Usage: gen_corpus <fuzz-dir>
//
// Writes deterministic seeds under <fuzz-dir>/corpus/{artifact,ingest}
// and the permanent crash regressions under
// <fuzz-dir>/regressions/{artifact,ingest}. The outputs are checked in:
// CI replays them on every build (standalone driver or libFuzzer
// -runs=0) and uses the corpus dirs as the fuzz smoke starting
// population. Regenerate after a format change and commit the result.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "ml/artifact.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "net/wire.hpp"

namespace {

using esl::Real;
using esl::RealVector;
namespace ml = esl::ml;
namespace fs = std::filesystem;

void write_bytes(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "gen_corpus: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

std::vector<char> artifact_bytes(bool baked_scaler) {
  // Tiny dataset on purpose: the seeds are checked in, and libFuzzer
  // mutates faster over small inputs; real-size artifacts are covered by
  // the unit suites.
  esl::Rng rng(baked_scaler ? 17 : 7);
  ml::Dataset data;
  for (std::size_t i = 0; i < 24; ++i) {
    RealVector row;
    for (std::size_t f = 0; f < 4; ++f) {
      row.push_back(std::round(rng.normal() * 4.0) / 4.0);
    }
    data.push_back(row, rng.uniform_index(2) == 0 ? 0 : 1);
  }
  ml::RandomForest forest;
  forest.fit(data, 5);

  const fs::path tmp = fs::temp_directory_path() / "esl_gen_corpus.eslm";
  if (baked_scaler) {
    ml::RowScaler scaler;
    for (std::size_t f = 0; f < data.feature_count(); ++f) {
      scaler.mean.push_back(0.1 * static_cast<Real>(f));
      scaler.stddev.push_back(1.0 + 0.05 * static_cast<Real>(f));
    }
    ml::save_artifact(tmp.string(), ml::CompiledForest(forest, scaler));
  } else {
    ml::save_artifact(tmp.string(), ml::CompiledForest(forest));
  }
  std::ifstream in(tmp, std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  fs::remove(tmp);
  return bytes;
}

void poke_u32(std::vector<char>& bytes, std::size_t offset,
              std::uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

ml::ArtifactHeader header_of(const std::vector<char>& bytes) {
  ml::ArtifactHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

/// The raw config prologue fuzz_ingest.cpp reads; layout kept in sync by
/// hand (it is a fuzzer input format, not an ABI).
struct RawConfig {
  double sample_rate_hz;
  double window_seconds;
  double overlap;
  double history_seconds;
  std::uint32_t alarm_consecutive;
  std::uint8_t use_fleet_model;
  std::uint8_t channels;
  std::uint16_t flags;
};

std::vector<char> ingest_bytes(const RawConfig& raw,
                               std::size_t samples, bool nan_payload) {
  std::vector<char> bytes(sizeof(raw) + samples * sizeof(Real));
  std::memcpy(bytes.data(), &raw, sizeof(raw));
  for (std::size_t i = 0; i < samples; ++i) {
    const Real value =
        nan_payload && i % 5 == 0
            ? std::numeric_limits<Real>::quiet_NaN()
            : static_cast<Real>(std::sin(0.37 * static_cast<double>(i)));
    std::memcpy(bytes.data() + sizeof(raw) + i * sizeof(Real), &value,
                sizeof(value));
  }
  return bytes;
}

std::vector<char> as_chars(const std::vector<std::byte>& bytes) {
  std::vector<char> out(bytes.size());
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// A representative client->server conversation, framed with the real
/// encoders so the seeds stay in sync with the wire format.
std::vector<std::byte> frame_conversation() {
  namespace net = esl::net;
  std::vector<std::byte> stream;
  net::encode_hello(stream, 1, net::HelloPayload{0x65676C617373ull});
  esl::engine::SessionConfig config;
  net::encode_open_session(stream, 7, 2, net::make_open_session(42, config));
  std::vector<Real> ch0(64), ch1(64);
  for (std::size_t i = 0; i < ch0.size(); ++i) {
    ch0[i] = std::sin(0.37 * static_cast<double>(i));
    ch1[i] = std::cos(0.11 * static_cast<double>(i));
  }
  net::encode_chunk(stream, 7, 3,
                    {std::span<const Real>(ch0), std::span<const Real>(ch1)});
  net::encode_swap_model(stream, 7, 5, "patient-4");
  net::encode_stats_request(stream, 6);
  net::encode_flush(stream, 7);
  net::encode_close(stream, 8);
  return stream;
}

/// The server->client direction: acks, pushed detections, stats, error.
std::vector<std::byte> frame_replies() {
  namespace net = esl::net;
  std::vector<std::byte> stream;
  net::encode_hello_ack(stream, 1,
                        net::HelloAckPayload{0x65676C617373ull, 4,
                                             net::k_hello_flag_registry});
  net::encode_open_session_ack(stream, 7, 2, net::OpenSessionAckPayload{9});
  net::WireDetection detections[2];
  detections[0].session_id = 7;
  detections[0].window_index = 3;
  detections[0].window_start_s = 3.0;
  detections[0].label = 1;
  detections[0].alarm = 1;
  detections[1].session_id = 7;
  detections[1].window_index = 4;
  detections[1].window_start_s = 4.0;
  detections[1].screened_out = 1;
  net::encode_detections(stream, 0, detections);
  net::encode_swap_model_ack(stream, 7, 5);
  net::StatsPayload stats;
  stats.windows_classified = 100;
  stats.forest_windows = 60;
  net::encode_stats(stream, 6, stats);
  net::encode_flush_ack(stream, 7);
  net::encode_error(stream, 9, net::WireErrorCode::kDataError,
                    "registry has no artifact for key");
  net::encode_close_ack(stream, 8);
  return stream;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: gen_corpus <fuzz-dir>\n");
    return 1;
  }
  const fs::path root(argv[1]);
  for (const char* dir : {"corpus/artifact", "corpus/ingest", "corpus/frame",
                          "regressions/artifact", "regressions/ingest",
                          "regressions/frame"}) {
    fs::create_directories(root / dir);
  }

  // ------------------------------------------------------- artifact seeds
  const std::vector<char> plain = artifact_bytes(false);
  const std::vector<char> scaled = artifact_bytes(true);
  write_bytes(root / "corpus/artifact/valid.eslm", plain);
  write_bytes(root / "corpus/artifact/valid_scaler.eslm", scaled);
  write_bytes(root / "corpus/artifact/truncated.bin",
              {plain.begin(), plain.begin() + static_cast<long>(
                                  plain.size() / 2)});
  {
    std::vector<char> bad = plain;
    bad[8] += 1;  // version
    write_bytes(root / "corpus/artifact/bad_version.bin", bad);
  }

  // Permanent regressions: the hostile-payload blobs that slipped past
  // header-only validation before validate_payload() existed (OOB reads
  // through left/right/tree_root/feature during traversal).
  const ml::ArtifactHeader header = header_of(plain);
  const ml::ArtifactLayout layout = ml::artifact_layout(
      header.node_count, header.tree_count, header.scaler_width);
  {
    std::vector<char> hostile = plain;
    poke_u32(hostile, layout.left,
             static_cast<std::uint32_t>(header.node_count));
    write_bytes(root / "regressions/artifact/oob_left_child.bin", hostile);
  }
  {
    std::vector<char> hostile = plain;
    poke_u32(hostile, layout.tree_root, ~std::uint32_t{0});
    write_bytes(root / "regressions/artifact/oob_tree_root.bin", hostile);
  }
  {
    std::vector<char> hostile = plain;
    poke_u32(hostile, layout.feature, header.max_feature + 1);
    write_bytes(root / "regressions/artifact/oob_feature_id.bin", hostile);
  }

  // --------------------------------------------------------- ingest seeds
  RawConfig wearable{256.0, 4.0, 0.75, 0.0, 3, 1, 2, 0};
  write_bytes(root / "corpus/ingest/wearable_stream.bin",
              ingest_bytes(wearable, 4096, false));
  RawConfig with_history = wearable;
  with_history.history_seconds = 8.0;
  with_history.flags = 1;
  write_bytes(root / "corpus/ingest/history_nan_stream.bin",
              ingest_bytes(with_history, 2048, true));
  RawConfig tiny{8.0, 0.5, 0.5, 0.0, 1, 0, 1, 15};
  write_bytes(root / "corpus/ingest/tiny_windows.bin",
              ingest_bytes(tiny, 512, false));

  // Permanent regression: finite-but-absurd geometry that used to reach
  // lround() overflow and a colossal ring allocation before validate()
  // gained plausibility bounds.
  RawConfig absurd{1e30, 4.0, 0.75, 1e20, 3, 1, 2, 0};
  write_bytes(root / "regressions/ingest/unbounded_geometry.bin",
              ingest_bytes(absurd, 64, false));

  // ---------------------------------------------------------- frame seeds
  // Both wire directions, framed by the real encoders: every frame type
  // appears at least once, so libFuzzer starts with full type coverage.
  const std::vector<char> conversation = as_chars(frame_conversation());
  const std::vector<char> replies = as_chars(frame_replies());
  write_bytes(root / "corpus/frame/client_conversation.bin", conversation);
  write_bytes(root / "corpus/frame/server_replies.bin", replies);
  write_bytes(root / "corpus/frame/truncated_stream.bin",
              {conversation.begin(),
               conversation.begin() +
                   static_cast<long>(conversation.size() / 2)});
  {
    std::vector<char> bad = conversation;
    bad[0] ^= 0x01;  // magic
    write_bytes(root / "corpus/frame/bad_magic.bin", bad);
  }
  {
    std::vector<char> bad = conversation;
    bad[8] += 1;  // version (u32 right after the magic)
    write_bytes(root / "corpus/frame/bad_version.bin", bad);
  }

  // Permanent regressions: well-formed headers over hostile payloads —
  // the cases the typed decoders (not validate()) must stop.
  {
    // Chunk whose declared geometry multiplies past the payload (and,
    // at 0xFFFF x 0xFFFF, past 32 bits).
    std::vector<std::byte> stream;
    std::vector<Real> samples(8, 1.0);
    esl::net::encode_chunk(stream, 1, 1, {std::span<const Real>(samples)});
    std::vector<char> hostile = as_chars(stream);
    poke_u32(hostile, sizeof(esl::net::FrameHeader), 0xFFFFu);
    poke_u32(hostile, sizeof(esl::net::FrameHeader) + 4, 0xFFFFu);
    write_bytes(root / "regressions/frame/chunk_geometry_overflow.bin",
                hostile);
  }
  {
    // Registry key smuggling a path separator past the length checks.
    std::vector<std::byte> stream;
    esl::net::encode_swap_model(stream, 1, 1, "aa.bbbb");
    std::vector<char> hostile = as_chars(stream);
    const std::size_t key_at =
        sizeof(esl::net::FrameHeader) + sizeof(esl::net::SwapModelPayload);
    hostile[key_at + 2] = '/';
    write_bytes(root / "regressions/frame/key_path_traversal.bin", hostile);
  }
  {
    // Detections batch declaring one more entry than the payload holds.
    std::vector<std::byte> stream;
    esl::net::WireDetection one;
    one.session_id = 7;
    esl::net::encode_detections(stream, 0, {&one, 1});
    std::vector<char> hostile = as_chars(stream);
    poke_u32(hostile, sizeof(esl::net::FrameHeader), 2);
    write_bytes(root / "regressions/frame/detections_count_overrun.bin",
                hostile);
  }
  return 0;
}
