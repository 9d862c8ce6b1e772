#include "common/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

namespace hido {

namespace {

// First buffer size for a read whose length is unknown up front.
constexpr size_t kUnsizedReadBytes = size_t{64} << 10;

std::atomic<int> g_write_failpoint{
    static_cast<int>(internal::WriteFailStep::kNone)};

// Consumes the one-shot failpoint if it is armed for `step`.
bool FailpointFires(internal::WriteFailStep step) {
  int expected = static_cast<int>(step);
  return g_write_failpoint.compare_exchange_strong(
      expected, static_cast<int>(internal::WriteFailStep::kNone),
      std::memory_order_relaxed);
}

}  // namespace

namespace internal {

void ArmWriteFailpointForTest(WriteFailStep step) {
  g_write_failpoint.store(static_cast<int>(step),
                          std::memory_order_relaxed);
}

}  // namespace internal

Result<FileBytes> ReadFile(const std::string& path) {
  Result<SequentialFile> opened = SequentialFile::Open(path, /*rewindable=*/false);
  if (!opened.ok()) return opened.status();
  SequentialFile& file = opened.value();
  // A regular file's buffer has one spare byte, so that end of file shows
  // without growing it; a pipe or FIFO has no size up front.
  size_t capacity = file.size() == 0 ? kUnsizedReadBytes : file.size() + 1;
  FileBytes bytes;
  bytes.data_ = std::make_unique_for_overwrite<char[]>(capacity);
  while (true) {
    const Result<size_t> got =
        file.Read(bytes.data_.get() + bytes.size_, capacity - bytes.size_);
    if (!got.ok()) return got.status();
    bytes.size_ += got.value();
    if (bytes.size_ < capacity) return bytes;
    std::unique_ptr<char[]> grown =
        std::make_unique_for_overwrite<char[]>(2 * capacity);
    std::memcpy(grown.get(), bytes.data_.get(), bytes.size_);
    bytes.data_ = std::move(grown);
    capacity *= 2;
  }
}

Result<SequentialFile> SequentialFile::Open(const std::string& path,
                                            bool rewindable) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open for reading: " + path);
  struct stat info = {};
  const bool described = ::fstat(fd, &info) == 0;
  SequentialFile file(path, fd, described && S_ISREG(info.st_mode));
  if (!described) return Status::IoError("read failure: " + path);
  if (S_ISDIR(info.st_mode)) return Status::IoError("is a directory: " + path);
  if (file.positional_) file.size_ = static_cast<size_t>(info.st_size);
  if (rewindable && !file.positional_) {
    const char* dir = std::getenv("TMPDIR");
    std::string name = std::string(dir != nullptr && *dir != '\0'
                                       ? dir
                                       : P_tmpdir) +
                       "/hido-copy-XXXXXX";
    file.copy_ = ::mkstemp(name.data());
    if (file.copy_ >= 0) ::unlink(name.c_str());
  }
  return file;
}

SequentialFile::SequentialFile(std::string path, int fd, bool positional)
    : path_(std::move(path)), fd_(fd), positional_(positional) {}

SequentialFile::SequentialFile(SequentialFile&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      positional_(other.positional_),
      copy_(std::exchange(other.copy_, -1)),
      rewound_(other.rewound_),
      offset_(other.offset_),
      size_(other.size_) {}

SequentialFile::~SequentialFile() {
  if (fd_ >= 0) ::close(fd_);
  DropCopy();
}

void SequentialFile::DropCopy() {
  if (copy_ >= 0) ::close(copy_);
  copy_ = -1;
}

Result<size_t> SequentialFile::Read(char* buffer, size_t length) {
  const int fd = rewound_ ? copy_ : fd_;
  const bool positional = positional_ || rewound_;
  size_t done = 0;
  while (done < length) {
    const ssize_t got =
        positional ? ::pread(fd, buffer + done, length - done,
                             static_cast<off_t>(offset_ + done))
                   : ::read(fd, buffer + done, length - done);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read failure: " + path_);
    }
    done += static_cast<size_t>(got);
  }
  offset_ += done;
  for (size_t kept = 0; copy_ >= 0 && !rewound_ && kept < done;) {
    const ssize_t put = ::write(copy_, buffer + kept, done - kept);
    if (put > 0) {
      kept += static_cast<size_t>(put);
    } else if (put == 0 || errno != EINTR) {
      DropCopy();  // no room or no file: reading goes on without a copy
    }
  }
  return done;
}

Status SequentialFile::Rewind() {
  if (!positional_ && copy_ < 0) {
    return Status::IoError(
        "cannot read " + path_ +
        " again: no temporary copy of it was kept (TMPDIR not writable?)");
  }
  rewound_ = !positional_;
  offset_ = 0;
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  Status failure = Status::Ok();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      // Nothing was created, so there is no temporary to clean up.
      return Status::IoError("cannot open for writing: " + tmp);
    }
    if (FailpointFires(internal::WriteFailStep::kOpen)) {
      failure = Status::IoError("cannot open for writing: " + tmp +
                                " (failpoint)");
    } else {
      out << content;
      out.flush();
      if (!out || FailpointFires(internal::WriteFailStep::kWrite)) {
        failure = Status::IoError("write failure: " + tmp);
      }
    }
    // The stream closes here, before any remove: deleting a still-open
    // file is undefined on non-POSIX platforms and previously left the
    // stale `.tmp` behind exactly on the failure paths that needed the
    // cleanup most.
  }
  if (!failure.ok()) {
    std::remove(tmp.c_str());
    return failure;
  }
  if (FailpointFires(internal::WriteFailStep::kRename) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failure: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

}  // namespace hido
