// Fixed-capacity sample ring buffer.
//
// engine::PatientSession keeps one ring per channel and reads both of its
// jobs from it: each 4 s window is the newest window_length samples, and
// the retrospective history used for a-posteriori labeling (the "last
// hour of signal") is the whole ring. push appends and overwrites the
// oldest samples on overflow; reads copy into caller-provided storage so
// the hot path never allocates.
#pragma once

#include <span>

#include "common/types.hpp"

namespace esl::signal {

/// Fixed-capacity FIFO ring over Real samples.
class SampleRing {
 public:
  /// Capacity in samples (>= 1).
  explicit SampleRing(std::size_t capacity);

  std::size_t size() const { return size_; }

  /// Appends samples; when the ring is full the oldest samples are
  /// overwritten.
  void push(std::span<const Real> samples);

  /// Copies the oldest `count` samples (in arrival order) into `out`.
  /// `count` must be <= size() and out.size() >= count.
  void copy_front(std::size_t count, std::span<Real> out) const {
    copy_from(head_, count, out);
  }

  /// Copies the newest `count` samples (in arrival order) into `out`.
  /// `count` must be <= size() and out.size() >= count.
  void copy_back(std::size_t count, std::span<Real> out) const;

  /// Copies the whole content (oldest to newest) into `out`.
  void copy_all(std::span<Real> out) const { copy_front(size_, out); }

 private:
  /// Copies `count` samples starting at storage index `start`, wrapping
  /// at the end of storage.
  void copy_from(std::size_t start, std::size_t count,
                 std::span<Real> out) const;

  RealVector data_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
};

}  // namespace esl::signal
