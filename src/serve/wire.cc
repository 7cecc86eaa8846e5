#include "src/serve/wire.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/telemetry/json.h"

namespace affsched {

bool ParseWireRequest(const std::string& line, WireRequest* request, std::string* error) {
  JsonValue doc;
  if (!ParseJson(line, &doc, error)) {
    return false;
  }
  if (!doc.IsObject()) {
    *error = "request must be a JSON object";
    return false;
  }
  const JsonValue* op = doc.Get("op");
  if (op == nullptr || !op->IsString() || op->string_value.empty()) {
    *error = "request needs a string \"op\" member";
    return false;
  }
  *request = WireRequest();
  request->op = op->string_value;
  const JsonValue* spec = doc.Get("spec");
  if (spec != nullptr && spec->IsString()) {
    request->spec = spec->string_value;
  }
  const JsonValue* jobs = doc.Get("jobs");
  if (jobs != nullptr && jobs->IsNumber()) {
    request->jobs = static_cast<std::size_t>(jobs->AsUint64());
  }
  return true;
}

std::string WireErrorEvent(const std::string& message) {
  return "{\"event\":\"error\",\"message\":\"" + JsonEscape(message) + "\"}";
}

namespace {

bool FillAddress(const std::string& path, sockaddr_un* addr, std::string* error) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    *error = "socket path empty or too long (max " +
             std::to_string(sizeof(addr->sun_path) - 1) + " bytes): " + path;
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size());
  return true;
}

}  // namespace

int ListenUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillAddress(path, &addr, error)) {
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A previous daemon instance may have left its socket file behind;
  // binding over it requires removing it first.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 16) != 0) {
    *error = "listen " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillAddress(path, &addr, error)) {
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

LineChannel::~LineChannel() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool LineChannel::ReadLine(std::string* line) {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // EOF (or error): surface any unterminated trailing line once.
    if (!buffer_.empty()) {
      *line = std::move(buffer_);
      buffer_.clear();
      return true;
    }
    return false;
  }
}

bool LineChannel::WriteLine(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::write(fd_, framed.data() + sent, framed.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace affsched
