#include "common/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/string_util.h"

namespace hido {

namespace {

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, std::strerror(errno)));
}

// A port must fit the 16-bit field; htons would silently wrap anything
// else onto another port.
Status CheckPort(int port) {
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument(
        StrFormat("port %d is outside [0, 65535]", port));
  }
  return Status::Ok();
}

thread_local FaultInjector* tls_fault_injector = nullptr;

// Consults the calling thread's injector (if any) before a syscall for
// `op`. Returns true with errno set when a scripted errno fault fires; a
// scripted short transfer instead clamps `*count` (never below 1 — a
// 0-byte read would read as EOF and a 0-byte write would loop forever).
bool InjectedFault(FaultInjector::Op op, size_t* count) {
  FaultInjector* injector = FaultInjector::CurrentForThisThread();
  if (injector == nullptr) return false;
  FaultInjector::Fault fault;
  if (!injector->Next(op, &fault)) return false;
  if (fault.errno_value != 0) {
    errno = fault.errno_value;
    return true;
  }
  if (count != nullptr && fault.clamp_bytes < *count) {
    *count = std::max<size_t>(fault.clamp_bytes, 1);
  }
  return false;
}

Result<int> ParseErrnoName(const std::string& name) {
  struct Named {
    const char* name;
    int value;
  };
  static constexpr Named kNames[] = {
      {"EINTR", EINTR},           {"EAGAIN", EAGAIN},
      {"ECONNRESET", ECONNRESET}, {"ECONNABORTED", ECONNABORTED},
      {"EPIPE", EPIPE},           {"EMFILE", EMFILE},
      {"ENFILE", ENFILE},         {"ETIMEDOUT", ETIMEDOUT},
      {"EIO", EIO},
  };
  for (const Named& candidate : kNames) {
    if (name == candidate.name) return candidate.value;
  }
  return Status::InvalidArgument("fault script: unknown errno: " + name);
}

}  // namespace

Result<FaultInjector> FaultInjector::Parse(const std::string& script) {
  FaultInjector injector;
  for (const std::string& raw : Split(script, ';')) {
    const std::string entry(Trim(raw));
    if (entry.empty()) continue;
    const size_t at = entry.find('@');
    const size_t eq = entry.find('=');
    if (at == std::string::npos || eq == std::string::npos || eq < at) {
      return Status::InvalidArgument(
          "fault script: expected op@call=fault, got: " + entry);
    }
    const std::string op_name = entry.substr(0, at);
    Op op;
    if (op_name == "accept") {
      op = Op::kAccept;
    } else if (op_name == "read") {
      op = Op::kRead;
    } else if (op_name == "write") {
      op = Op::kWrite;
    } else {
      return Status::InvalidArgument("fault script: unknown op: " + op_name);
    }

    Entry scheduled;
    const std::string range = entry.substr(at + 1, eq - at - 1);
    const size_t dots = range.find("..");
    int64_t first = 0;
    int64_t last = 0;
    if (dots == std::string::npos) {
      Result<int64_t> call = ParseInt(range);
      if (!call.ok()) {
        return Status::InvalidArgument(
            "fault script: bad call number: " + entry);
      }
      first = call.value();
      last = first;
    } else {
      Result<int64_t> lower = ParseInt(range.substr(0, dots));
      if (!lower.ok()) {
        return Status::InvalidArgument(
            "fault script: bad call range: " + entry);
      }
      first = lower.value();
      const std::string upper = range.substr(dots + 2);
      if (upper.empty()) {
        last = INT64_MAX;  // open-ended: op@A..=fault
      } else {
        Result<int64_t> bound = ParseInt(upper);
        if (!bound.ok()) {
          return Status::InvalidArgument(
              "fault script: bad call range: " + entry);
        }
        last = bound.value();
      }
    }
    if (first <= 0 || last < first) {
      return Status::InvalidArgument(
          "fault script: call numbers are 1-based and ranges ascending: " +
          entry);
    }
    scheduled.first = static_cast<uint64_t>(first);
    scheduled.last = static_cast<uint64_t>(last);

    const std::string fault = entry.substr(eq + 1);
    if (fault.compare(0, 6, "short:") == 0) {
      Result<int64_t> clamp = ParseInt(fault.substr(6));
      if (!clamp.ok() || clamp.value() < 0) {
        return Status::InvalidArgument(
            "fault script: bad short length: " + entry);
      }
      scheduled.fault.errno_value = 0;
      scheduled.fault.clamp_bytes = static_cast<size_t>(clamp.value());
    } else {
      Result<int> errno_value = ParseErrnoName(fault);
      if (!errno_value.ok()) return errno_value.status();
      scheduled.fault.errno_value = errno_value.value();
    }
    injector.entries_[static_cast<int>(op)].push_back(scheduled);
  }
  return injector;
}

void FaultInjector::InstallOnThisThread(FaultInjector* injector) {
  tls_fault_injector = injector;
}

FaultInjector* FaultInjector::CurrentForThisThread() {
  return tls_fault_injector;
}

bool FaultInjector::Next(Op op, Fault* fault) {
  const uint64_t call = ++calls_[static_cast<int>(op)];
  for (const Entry& entry : entries_[static_cast<int>(op)]) {
    if (call >= entry.first && call <= entry.last) {
      *fault = entry.fault;
      ++fired_;
      return true;
    }
  }
  return false;
}

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpListener> ListenTcp(const std::string& host, int port,
                              int backlog) {
  HIDO_RETURN_IF_ERROR(CheckPort(port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  const int one = 1;
  // Best-effort: rebinding a recently closed port should not fail.
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) return Errno("listen");

  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return Errno("getsockname");
  }
  TcpListener listener;
  listener.fd = std::move(fd);
  listener.port = ntohs(bound.sin_port);
  return listener;
}

Result<OwnedFd> AcceptClient(int listener_fd) {
  while (true) {
    const int fd = InjectedFault(FaultInjector::Op::kAccept, nullptr)
                       ? -1
                       : ::accept(listener_fd, nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return OwnedFd(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return OwnedFd();
    return Errno("accept");
  }
}

Result<OwnedFd> ConnectTcp(const std::string& host, int port) {
  HIDO_RETURN_IF_ERROR(CheckPort(port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Errno("connect");
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

Result<size_t> WriteSome(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    size_t count = data.size() - written;
    // MSG_NOSIGNAL: a peer that closed mid-write surfaces as EPIPE, not a
    // process-killing SIGPIPE.
    const ssize_t n = InjectedFault(FaultInjector::Op::kWrite, &count)
                          ? -1
                          : ::send(fd, data.data() + written, count,
                                   MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return written;
    return Errno("write");
  }
  return written;
}

Status WriteAll(int fd, std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    size_t count = data.size() - written;
    const ssize_t n = InjectedFault(FaultInjector::Op::kWrite, &count)
                          ? -1
                          : ::send(fd, data.data() + written, count,
                                   MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("write");
  }
  return Status::Ok();
}

Result<ReadOutcome> ReadAvailable(int fd, std::string* buffer,
                                  size_t max_bytes) {
  char chunk[4096];
  ReadOutcome outcome;
  size_t total = 0;
  while (total < max_bytes) {
    size_t want = std::min(sizeof(chunk), max_bytes - total);
    const ssize_t n = InjectedFault(FaultInjector::Op::kRead, &want)
                          ? -1
                          : ::read(fd, chunk, want);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < want) break;  // drained for now
      continue;
    }
    if (n == 0) {
      outcome.bytes = total > 0 ? static_cast<ssize_t>(total) : 0;
      return outcome;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      outcome.bytes = total > 0 ? static_cast<ssize_t>(total) : -1;
      return outcome;
    }
    if (total > 0) {
      // A hard error after bytes were already appended must not make the
      // caller discard them: deliver the data now; the failure resurfaces
      // on the next call (as the same error, or as EOF).
      outcome.bytes = static_cast<ssize_t>(total);
      return outcome;
    }
    return Errno("read");
  }
  outcome.bytes = static_cast<ssize_t>(total);
  return outcome;
}

Result<std::string> ReadLine(int fd, std::string* carry) {
  while (true) {
    const size_t pos = carry->find('\n');
    if (pos != std::string::npos) {
      std::string line = carry->substr(0, pos);
      carry->erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    ssize_t n;
    do {
      size_t want = sizeof(chunk);
      n = InjectedFault(FaultInjector::Op::kRead, &want)
              ? -1
              : ::read(fd, chunk, want);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return Errno("read");
    if (n == 0) return Status::IoError("connection closed mid-line");
    carry->append(chunk, static_cast<size_t>(n));
  }
}

namespace {

Result<bool> WaitForEvents(int fd, short events, int timeout_ms) {
  pollfd pfd = {fd, events, 0};
  while (true) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) return true;
    if (ready == 0) return false;
    if (errno == EINTR) continue;  // retry against the same budget
    return Errno("poll");
  }
}

}  // namespace

Result<bool> WaitReadable(int fd, int timeout_ms) {
  return WaitForEvents(fd, POLLIN, timeout_ms);
}

Result<bool> WaitWritable(int fd, int timeout_ms) {
  return WaitForEvents(fd, POLLOUT, timeout_ms);
}

}  // namespace hido
