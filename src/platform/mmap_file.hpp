// Read-only memory-mapped file (POSIX mmap first, with a portable
// read-into-buffer fallback).
//
// The model artifact layer (ml/artifact.hpp) serves inference straight
// from the bytes of a file on disk: MappedFile is the platform seam that
// makes those bytes addressable. On POSIX hosts the file is mapped
// shared/read-only, so loading a multi-megabyte personalized forest is
// one mmap call — pages fault in lazily as traversal first touches them,
// nothing is deserialized, and a fleet of models can be "loaded" without
// committing resident memory. Elsewhere (no <sys/mman.h>) the file is
// read into one heap buffer with identical semantics, so callers never
// branch on platform.
//
// Lifetime: the mapping lives exactly as long as the MappedFile (move-
// only, unmapped in the destructor). Anything that borrows spans into
// bytes() — a mapped ml::CompiledForest, the sessions holding it — must
// keep the owning object alive; the artifact layer does this by holding
// the MappedFile inside the shared_ptr'd model.
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace esl::platform {

class MappedFile {
 public:
  /// Empty (nothing mapped).
  MappedFile() = default;
  /// Maps `path` read-only in its entirety. Throws DataError when the
  /// file cannot be opened, statted, or mapped. A zero-length file maps
  /// to an empty bytes() span.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  bool is_open() const { return data_ != nullptr || open_; }
  std::size_t size() const { return size_; }
  /// The file's bytes. Read-only: the mapping is MAP_PRIVATE-equivalent
  /// shared read, never written through.
  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(data_), size_};
  }

 private:
  void reset() noexcept;

  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool open_ = false;   // distinguishes an empty mapped file from none
  bool heap_ = false;   // fallback path: data_ is new[]'d, not mmap'd
};

}  // namespace esl::platform
