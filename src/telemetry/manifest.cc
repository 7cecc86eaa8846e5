#include "src/telemetry/manifest.h"

#include <sstream>

#if defined(_WIN32)
// No gethostname without winsock initialisation; provenance falls back.
#else
#include <unistd.h>
#endif

#include "src/telemetry/json.h"

namespace affsched {

namespace {

#ifndef AFFSCHED_GIT_SHA
#define AFFSCHED_GIT_SHA "unknown"
#endif
#ifndef AFFSCHED_BUILD_TYPE
#define AFFSCHED_BUILD_TYPE "unknown"
#endif

const char* CompilerId() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

const char* RunManifest::GitSha() { return AFFSCHED_GIT_SHA; }

RunManifest::RunManifest() {
  SetString("git_sha", GitSha());
  SetString("build_type", AFFSCHED_BUILD_TYPE);
  SetString("compiler", CompilerId());
}

void RunManifest::SetString(const std::string& key, const std::string& value) {
  members_[key] = "\"" + JsonEscape(value) + "\"";
}

void RunManifest::SetNumber(const std::string& key, double value) {
  members_[key] = JsonNumber(value);
}

void RunManifest::SetUint(const std::string& key, uint64_t value) {
  members_[key] = std::to_string(value);
}

void RunManifest::SetBool(const std::string& key, bool value) {
  members_[key] = value ? "true" : "false";
}

void RunManifest::SetJson(const std::string& key, const std::string& json) {
  members_[key] = json;
}

void RunManifest::SetProvenance(int argc, const char* const* argv) {
  SetString("git_rev", GitSha());
  std::string host = "unknown";
#if !defined(_WIN32)
  char buffer[256];
  if (gethostname(buffer, sizeof(buffer)) == 0) {
    buffer[sizeof(buffer) - 1] = '\0';
    host = buffer;
  }
#endif
  SetString("hostname", host);
  std::string args = "[";
  for (int i = 0; i < argc; ++i) {
    if (i > 0) {
      args += ",";
    }
    args += "\"" + JsonEscape(argv[i] != nullptr ? argv[i] : "") + "\"";
  }
  args += "]";
  SetJson("argv", args);
}

void RunManifest::AddMetrics(const MetricsRegistry& registry) {
  SetJson("metrics", registry.ToJson());
}

void RunManifest::AddProfile(const Profiler& profiler) { SetJson("profile", profiler.ToJson()); }

std::string RunManifest::ToJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [key, value] : members_) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << JsonEscape(key) << "\":" << value;
  }
  out << "}";
  return out.str();
}

bool RunManifest::WriteFile(const std::string& path) const {
  return WriteJsonDocument(path, ToJson());
}

}  // namespace affsched
