#ifndef HIDO_COMMON_FILE_UTIL_H_
#define HIDO_COMMON_FILE_UTIL_H_

// Small file helpers shared by the input and persistence layers (CSV,
// models, checkpoints, snapshots): whole-file reads, front-to-back reads
// into the caller's buffers, and crash-tolerant atomic writes.

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

/// Reads the entire file (binary, no translation) through SequentialFile:
/// a regular file into a buffer of its `fstat` size plus one byte, then on
/// to end of file should it have grown; a pipe or FIFO into a doubling
/// buffer. A directory is an IoError.
Result<FileBytes> ReadFile(const std::string& path);

/// A file, pipe or FIFO read front to back into buffers the caller owns,
/// so that a reader can hold a window of the input instead of all of it
/// (ReadCsv does). A regular file is read with pread at an advancing
/// offset, anything else with read.
class SequentialFile {
 public:
  /// Opens `path`; a directory is an IoError. With `rewindable`, a pipe or
  /// FIFO also tries to copy every byte it reads into an unlinked
  /// temporary file in `$TMPDIR` (else P_tmpdir) that Rewind replays; a
  /// regular file is simply read again. The copy is best effort: when it
  /// cannot be created or written, it is dropped and reading goes on, and
  /// only a Rewind fails.
  static Result<SequentialFile> Open(const std::string& path,
                                     bool rewindable);

  SequentialFile(SequentialFile&& other) noexcept;  ///< takes the file over
  SequentialFile& operator=(SequentialFile&& other) = delete;
  ~SequentialFile();  ///< closes the file and any copy

  /// Fills buffer[0, length) with the next bytes and returns how many it
  /// read: fewer than `length` only at end of file.
  Result<size_t> Read(char* buffer, size_t length);

  /// Reads from the first byte again; a pipe or FIFO replays its copy,
  /// which ends where reading had got to. An IoError for a pipe or FIFO
  /// whose copy was not kept (not asked for, or dropped).
  Status Rewind();

  /// A regular file's size when it was opened; 0 for a pipe or FIFO.
  size_t size() const { return size_; }

 private:
  SequentialFile(std::string path, int fd, bool positional);

  // Ends the copy: it stays incomplete, so Rewind can no longer replay it.
  void DropCopy();

  std::string path_;
  int fd_ = -1;              // the open file, pipe or FIFO
  bool positional_ = false;  // fd_ is read with pread at offset_
  int copy_ = -1;            // a rewindable pipe's bytes so far, or -1
  bool rewound_ = false;     // reading copy_ back with pread
  size_t offset_ = 0;        // bytes read since the first or a rewind
  size_t size_ = 0;          // see size()
};

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
