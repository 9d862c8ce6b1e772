#ifndef HIDO_COMMON_SOCKET_H_
#define HIDO_COMMON_SOCKET_H_

// Thin POSIX TCP helpers for the serving front end (src/serve/): an RAII
// fd owner, listener/connect constructors, non-blocking mode, and
// write-all / read-line convenience used by clients and tests. Everything
// reports through Status/Result (no exceptions, no errno leaking to
// callers beyond the message text).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace hido {

/// Owns a file descriptor; closes it on destruction. Movable, not
/// copyable (exactly one owner per fd).
class OwnedFd {
 public:
  OwnedFd() = default;
  /// Takes ownership of `fd` (-1 for none).
  explicit OwnedFd(int fd) : fd_(fd) {}
  /// Closes the held fd.
  ~OwnedFd() { Reset(); }

  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  /// Move transfers ownership; the source is left invalid.
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  /// Move-assign closes the current fd, then takes the source's.
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }          ///< the raw fd (-1 if none)
  bool valid() const { return fd_ >= 0; }  ///< holds an open fd?

  /// Gives up ownership without closing.
  int Release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the held fd (if any).
  void Reset();

 private:
  int fd_ = -1;
};

/// A bound-and-listening TCP socket plus the port it actually landed on
/// (useful with port 0, where the kernel assigns one).
struct TcpListener {
  OwnedFd fd;    ///< the listening socket
  int port = 0;  ///< the bound port (kernel-assigned when asked for 0)
};

/// Binds `host:port` (port 0 = kernel-assigned) and listens. The listener
/// fd is left in blocking mode; flip it with SetNonBlocking for an event
/// loop. `host` must be a numeric IPv4 address (e.g. "127.0.0.1"); a port
/// outside [0, 65535] is an InvalidArgument.
Result<TcpListener> ListenTcp(const std::string& host, int port,
                              int backlog = 64);

/// Accepts one pending connection. On a non-blocking listener with no
/// pending connection, returns an invalid OwnedFd (not an error).
Result<OwnedFd> AcceptClient(int listener_fd);

/// Connects to `host:port` (numeric IPv4, port in [0, 65535]), blocking.
Result<OwnedFd> ConnectTcp(const std::string& host, int port);

/// Puts the fd in non-blocking mode.
Status SetNonBlocking(int fd);

/// Writes all of `data`, retrying on short writes and EINTR. On a
/// non-blocking fd, EAGAIN returns the number of bytes written so far via
/// Result (callers keep the rest buffered); other errors are IoError.
Result<size_t> WriteSome(int fd, std::string_view data);

/// Blocking write of the entire buffer (EINTR-retried).
Status WriteAll(int fd, std::string_view data);

/// Reads whatever is available (up to `max_bytes`) and appends it to
/// `*buffer`. Returns the number of bytes read; 0 means orderly EOF. On a
/// non-blocking fd with nothing pending, returns -1 with an OK-equivalent
/// meaning "try later" — callers distinguish it from EOF.
struct ReadOutcome {
  ssize_t bytes = 0;    ///< >0 read, 0 EOF, -1 nothing available (EAGAIN)
};
/// See the contract above ReadOutcome.
Result<ReadOutcome> ReadAvailable(int fd, std::string* buffer,
                                  size_t max_bytes = 64 * 1024);

/// Blocking helper for clients/tests: reads from `fd` into `*carry` until
/// it holds a full '\n'-terminated line, then returns the line without the
/// terminator (a trailing '\r' is stripped). EOF before a newline is an
/// IoError.
Result<std::string> ReadLine(int fd, std::string* carry);

/// Waits up to `timeout_ms` for `fd` to become readable. Returns true when
/// readable (or at EOF/error — a subsequent read will not block), false on
/// timeout. EINTR is retried against the remaining budget.
Result<bool> WaitReadable(int fd, int timeout_ms);

/// Waits up to `timeout_ms` for `fd` to accept writes; same contract as
/// WaitReadable.
Result<bool> WaitWritable(int fd, int timeout_ms);

/// Deterministic, scripted fault injection for the socket helpers above —
/// the I/O analogue of StopToken::ArmFailpoint. A script names which call,
/// counted per operation from installation, fails and how:
///
///   "read@2=EINTR;write@3=short:5;accept@4=EMFILE;write@6..9=EAGAIN"
///
/// Grammar: entries separated by ';', each `op@N=fault` or `op@A..B=fault`
/// (inclusive 1-based call range; `op@A..=fault` is open-ended). Ops are
/// `accept`, `read`, `write`. A fault is either an errno name (EINTR,
/// EAGAIN, ECONNRESET, ECONNABORTED, EPIPE, EMFILE, ENFILE, ETIMEDOUT,
/// EIO) — the helper behaves exactly as if the syscall failed with it — or
/// `short:K`, which clamps the byte count handed to the kernel to K
/// (a scripted short read/write; K is clamped up to 1).
///
/// Injectors are installed per thread (`InstallOnThisThread`), so a test
/// can arm the server's event-loop thread while its own client I/O, going
/// through the very same helpers, stays undisturbed. When no injector is
/// installed the helpers pay one thread-local pointer load — zero cost in
/// production. A FaultInjector is not thread-safe; it must only be used by
/// the thread it is installed on.
class FaultInjector {
 public:
  /// The three injectable syscall families.
  enum class Op : int { kAccept = 0, kRead = 1, kWrite = 2 };

  /// One scheduled fault: an errno to fail with, or (when errno_value is
  /// 0) a clamp on the byte count for a scripted short transfer.
  struct Fault {
    int errno_value = 0;     ///< errno to fail with (0 = short transfer)
    size_t clamp_bytes = 0;  ///< byte clamp when errno_value is 0
  };

  /// Parses the script grammar documented above.
  static Result<FaultInjector> Parse(const std::string& script);

  /// Installs `injector` for the calling thread (nullptr disarms). The
  /// injector must outlive its installation.
  static void InstallOnThisThread(FaultInjector* injector);

  /// The injector installed on the calling thread, or nullptr.
  static FaultInjector* CurrentForThisThread();

  /// Called by the helpers before each syscall attempt: bumps the per-op
  /// call count and reports whether a fault is scheduled for this call.
  bool Next(Op op, Fault* fault);

  /// Syscall attempts seen for `op` since installation.
  uint64_t calls(Op op) const {
    return calls_[static_cast<int>(op)];
  }

  /// Total faults fired across all ops.
  uint64_t fired() const { return fired_; }

 private:
  /// A scripted fault covering calls `first..last` (inclusive, 1-based).
  struct Entry {
    uint64_t first = 0;
    uint64_t last = 0;
    Fault fault;
  };

  std::vector<Entry> entries_[3];
  uint64_t calls_[3] = {0, 0, 0};
  uint64_t fired_ = 0;
};

}  // namespace hido

#endif  // HIDO_COMMON_SOCKET_H_
