#ifndef HIDO_COMMON_FILE_UTIL_H_
#define HIDO_COMMON_FILE_UTIL_H_

// Small file helpers shared by the input and persistence layers (CSV,
// models, checkpoints, snapshots): whole-file reads and crash-tolerant
// atomic writes.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hido {

/// A whole file's bytes in one heap buffer. The buffer is not zero-filled
/// before the read overwrites it, which a std::string cannot offer.
class FileBytes {
 public:
  FileBytes() = default;  ///< no bytes

  /// The bytes read; valid while this object lives.
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  friend Result<FileBytes> ReadFile(const std::string& path);
  std::unique_ptr<char[]> data_;
  size_t size_ = 0;
};

/// ReadFile reads a regular file in slices of this many bytes, one task
/// each on the shared pool: large enough that each pread's fixed cost
/// vanishes, small enough that an 80 MB file keeps every worker busy.
inline constexpr size_t kReadSliceBytes = size_t{4} << 20;

/// Reads the entire file (binary, no translation). A regular file is read
/// straight into a buffer of its `fstat` size, in kReadSliceBytes slices
/// in parallel, then on to end of file should it have grown; a slice that
/// comes up short (the file shrank meanwhile) is an IoError. A pipe or
/// FIFO is read to its end into a doubling buffer. A directory is an
/// IoError.
Result<FileBytes> ReadFile(const std::string& path);

/// Writes `content` to `path` via a temporary sibling file followed by a
/// rename, so a crash mid-write can never leave a truncated or interleaved
/// file at `path` — readers observe either the previous complete content or
/// the new one. The temporary is `path` + ".tmp"; concurrent writers of the
/// same path must be externally serialized. Every error path removes the
/// temporary (after closing it), so a failed write never leaves a stale
/// `.tmp` beside the target.
Status WriteFileAtomic(const std::string& path, const std::string& content);

/// True when `path` exists (any file type).
bool FileExists(const std::string& path);

namespace internal {

/// Fault-injection points inside WriteFileAtomic, in execution order.
enum class WriteFailStep {
  kNone = 0,
  kOpen,    ///< the temporary opened but is treated as an open failure
  kWrite,   ///< the content write/flush is treated as failed
  kRename,  ///< the final rename is treated as failed (file stays old)
};

/// Arms a one-shot failpoint for the next WriteFileAtomic call (tests
/// only; kNone disarms). The injected failure takes the same cleanup path
/// as the real one, so tests can assert no `.tmp` survives.
void ArmWriteFailpointForTest(WriteFailStep step);

}  // namespace internal

}  // namespace hido

#endif  // HIDO_COMMON_FILE_UTIL_H_
