// Fuzz harness for the session ingest trust boundary
// (engine/patient_session.hpp).
//
// SessionConfig and raw sample chunks arrive from outside the process
// (radio packets, gateway config) — the boundary guards are
// validate(SessionConfig) and PatientSession::ingest's chunk checks.
// The harness splits each input blob in two:
//
//  1. The first bytes become a *raw* SessionConfig, bit-for-bit — every
//     double field sees NaNs, infinities, denormals, negative zeros —
//     and validate() runs on it unclamped. Accepted configs must be
//     safely constructible (this is how the unbounded-geometry lround
//     overflow was found; see validate()'s plausibility bounds).
//  2. The remainder drives ingest on a bounded-geometry session derived
//     from the same raw bits: adversarial chunk sizes (including empty,
//     single-sample, ragged, and wrong channel-count chunks) and sample
//     values reinterpreted from the input bytes (NaN/inf payloads
//     included), interleaved with observe_label and pending drains.
//
// Every esl::Error is a correct rejection; anything else is a finding.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "engine/patient_session.hpp"
#include "features/eglass_features.hpp"

namespace {

using esl::Real;
using esl::engine::PatientSession;
using esl::engine::SessionConfig;

/// Raw config material, memcpy'd straight off the input so every field
/// exercises the full bit pattern space.
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

SessionConfig to_session_config(const RawConfig& raw) {
  SessionConfig config;
  config.sample_rate_hz = static_cast<Real>(raw.sample_rate_hz);
  config.window_seconds = static_cast<Real>(raw.window_seconds);
  config.overlap = static_cast<Real>(raw.overlap);
  config.alarm_consecutive = raw.alarm_consecutive;
  config.history_seconds = static_cast<Real>(raw.history_seconds);
  config.use_fleet_model = (raw.use_fleet_model & 1) != 0;
  return config;
}

/// Folds a raw double into [lo, hi] deterministically, so hostile bits
/// still vary the bounded geometry instead of collapsing to a default.
double folded(double value, double lo, double hi) {
  if (!std::isfinite(value)) {
    return lo;
  }
  const double span = hi - lo;
  const double wrapped = std::fabs(std::fmod(value, span));
  return lo + (std::isfinite(wrapped) ? wrapped : 0.0);
}

/// Ingest-path session: geometry folded into cheap-but-varied ranges
/// (the unbounded raw config is validate()'s job, stage 1). Windows stay
/// tiny — between the extractor's minimum and twice it — so tens of
/// adversarial chunks complete within the fuzz budget, and the history
/// ring holds one to four windows.
SessionConfig bounded_config(const RawConfig& raw, std::size_t min_window) {
  SessionConfig config;
  const double sample_rate_hz = folded(raw.sample_rate_hz, 4.0, 64.0);
  const double min_seconds =
      static_cast<double>(min_window) / sample_rate_hz;
  const double window_seconds =
      folded(raw.window_seconds, min_seconds, 2.0 * min_seconds);
  config.sample_rate_hz = static_cast<Real>(sample_rate_hz);
  config.window_seconds = static_cast<Real>(window_seconds);
  config.overlap = static_cast<Real>(folded(raw.overlap, 0.0, 0.9375));
  config.alarm_consecutive = 1 + raw.alarm_consecutive % 4;
  config.history_seconds =
      (raw.flags & 1) != 0
          ? static_cast<Real>(folded(raw.history_seconds, window_seconds,
                                     4.0 * window_seconds))
          : Real{0.0};
  config.use_fleet_model = (raw.use_fleet_model & 1) != 0;
  return config;
}

void drive_ingest(const RawConfig& raw, std::span<const std::uint8_t> tape) {
  const std::size_t channels = 1 + raw.channels % 2;
  const esl::features::EglassFeatureExtractor extractor(channels);
  PatientSession session(raw.flags, extractor,
                         bounded_config(raw, extractor.min_window_length()));

  // Reinterpret the tape as sample payloads: arbitrary bit patterns,
  // so NaNs, infinities and denormals flow through the DSP pipeline.
  std::vector<Real> samples(tape.size() / sizeof(Real));
  std::memcpy(samples.data(), tape.data(),
              samples.size() * sizeof(Real));

  std::size_t cursor = 0;
  std::size_t step = 0;
  while (cursor < samples.size() && step < 64) {
    // Chunk length and shape decided by the tape itself.
    const std::uint8_t knob = tape[(step * 7) % (tape.empty() ? 1 : tape.size())];
    const std::size_t want = static_cast<std::size_t>(knob) % 97;
    const std::size_t length = std::min(want, samples.size() - cursor);

    std::vector<std::span<const Real>> chunk;
    const std::span<const Real> block(samples.data() + cursor, length);
    const std::size_t shape = knob % 16;
    if (shape == 13) {
      // Wrong channel count: must be rejected without touching state.
      chunk.assign(channels + 1, block);
    } else if (shape == 14 && length > 0) {
      // Ragged lengths: equally rejected.
      chunk.assign(channels, block);
      chunk.back() = block.first(length - 1);
    } else {
      chunk.assign(channels, block);
    }

    try {
      session.ingest(chunk);
    } catch (const esl::InvalidArgument&) {
      // Malformed chunk correctly rejected; the stream must still work.
    }
    cursor += length;
    ++step;

    if (shape == 15) {
      for (std::size_t r = 0; r < session.pending().rows(); ++r) {
        session.observe_label(static_cast<int>(knob & 1));
      }
      session.clear_pending();
    }
  }

  // The post-conditions any caller relies on after arbitrary traffic.
  (void)session.alarms();
  (void)session.buffered_samples();
  if (session.windows_emitted() > 0) {
    (void)session.window_start_s(session.windows_emitted() - 1);
  }
  if (session.history_enabled()) {
    try {
      (void)session.history_record("fuzz");
    } catch (const esl::InvalidArgument&) {
      // Less than one window buffered yet.
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < sizeof(RawConfig)) {
    return 0;
  }
  RawConfig raw;
  std::memcpy(&raw, data, sizeof(raw));

  // Stage 1: the validation boundary on fully hostile bits.
  try {
    validate(to_session_config(raw));
  } catch (const esl::InvalidArgument&) {
    // Rejected — correct for almost every random bit pattern.
  }

  // Stage 2: the ingest path under adversarial traffic.
  try {
    drive_ingest(raw, {data + sizeof(raw), size - sizeof(raw)});
  } catch (const esl::Error&) {
    // Boundary rejection (e.g. a bounded config still invalid).
  }
  return 0;
}
