#include "common/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace hido {

namespace {

// First buffer size for a read whose length is unknown up front.
constexpr size_t kUnsizedReadBytes = size_t{64} << 10;

// Closes a file descriptor when it goes out of scope.
struct FdCloser {
  explicit FdCloser(int descriptor) : fd(descriptor) {}
  ~FdCloser() { ::close(fd); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;
  const int fd;
};

// Fills buffer[0, length) from the file at `offset`. A file that ends
// first shrank after its size was taken: that is an error, never a buffer
// with a hole in it.
Status ReadSlice(int fd, const std::string& path, char* buffer,
                 size_t offset, size_t length) {
  size_t done = 0;
  while (done < length) {
    const ssize_t got = ::pread(fd, buffer + done, length - done,
                                static_cast<off_t>(offset + done));
    if (got == 0) {
      return Status::IoError("file shrank while being read: " + path);
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read failure: " + path);
    }
    done += static_cast<size_t>(got);
  }
  return Status::Ok();
}

// Reads from the descriptor's offset to end of file into `*buffer`, which
// holds `*size` bytes and has room for `*capacity`; it doubles when full.
Status ReadToEnd(int fd, const std::string& path,
                 std::unique_ptr<char[]>* buffer, size_t* capacity,
                 size_t* size) {
  while (true) {
    if (*size == *capacity) {
      std::unique_ptr<char[]> grown =
          std::make_unique_for_overwrite<char[]>(2 * *capacity);
      std::memcpy(grown.get(), buffer->get(), *size);
      *buffer = std::move(grown);
      *capacity *= 2;
    }
    const ssize_t got = ::read(fd, buffer->get() + *size, *capacity - *size);
    if (got == 0) return Status::Ok();
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read failure: " + path);
    }
    *size += static_cast<size_t>(got);
  }
}

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
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path);
  }
  const FdCloser closer(fd);
  struct stat info = {};
  if (::fstat(fd, &info) != 0) {
    return Status::IoError("read failure: " + path);
  }
  if (S_ISDIR(info.st_mode)) {
    return Status::IoError("is a directory: " + path);
  }
  FileBytes bytes;
  size_t capacity = kUnsizedReadBytes;
  if (S_ISREG(info.st_mode)) {
    // Sized from the file, with one spare byte so that end of file shows
    // without growing the buffer. The slices are read in parallel.
    const size_t size = static_cast<size_t>(info.st_size);
    capacity = size + 1;
    bytes.data_ = std::make_unique_for_overwrite<char[]>(capacity);
    const size_t slices = (size + kReadSliceBytes - 1) / kReadSliceBytes;
    std::vector<Status> slice_status(slices, Status::Ok());
    ParallelFor(slices, HardwareThreads(), [&](size_t slice, size_t) {
      const size_t offset = slice * kReadSliceBytes;
      slice_status[slice] =
          ReadSlice(fd, path, bytes.data_.get() + offset, offset,
                    std::min(kReadSliceBytes, size - offset));
    });
    for (const Status& status : slice_status) HIDO_RETURN_IF_ERROR(status);
    bytes.size_ = size;
    // Bytes appended since the fstat are read on to end of file.
    if (::lseek(fd, static_cast<off_t>(size), SEEK_SET) < 0) {
      return Status::IoError("read failure: " + path);
    }
  } else {
    // A pipe or FIFO has no size up front.
    bytes.data_ = std::make_unique_for_overwrite<char[]>(capacity);
  }
  HIDO_RETURN_IF_ERROR(
      ReadToEnd(fd, path, &bytes.data_, &capacity, &bytes.size_));
  return bytes;
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

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

}  // namespace hido
