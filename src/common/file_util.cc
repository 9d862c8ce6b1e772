#include "common/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>

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

Result<std::string> ReadFileToString(const std::string& path) {
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
  // A regular file is read into a buffer sized from the file, with one
  // spare byte so that end of file shows without growing it. A pipe or
  // FIFO has no size up front: its buffer doubles until end of file.
  std::string buffer(S_ISREG(info.st_mode)
                         ? static_cast<size_t>(info.st_size) + 1
                         : kUnsizedReadBytes,
                     '\0');
  size_t size = 0;
  while (true) {
    if (size == buffer.size()) buffer.resize(2 * buffer.size());
    const ssize_t got =
        ::read(fd, buffer.data() + size, buffer.size() - size);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read failure: " + path);
    }
    size += static_cast<size_t>(got);
  }
  buffer.resize(size);
  return buffer;
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
