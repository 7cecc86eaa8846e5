#include "src/serve/spool.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "src/telemetry/json.h"

namespace fs = std::filesystem;

namespace affsched {

namespace {

std::string PidSuffix() { return std::to_string(static_cast<long>(::getpid())); }

bool ReadFileText(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open()) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return in.good() || in.eof();
}

}  // namespace

Spool::Spool(const std::string& dir) : dir_(dir) {
  if (dir_.empty()) {
    error_ = "empty spool directory";
    return;
  }
  todo_dir_ = (fs::path(dir_) / "todo").string();
  claimed_dir_ = (fs::path(dir_) / "claimed").string();
  std::error_code ec;
  fs::create_directories(todo_dir_, ec);
  if (!ec) {
    fs::create_directories(claimed_dir_, ec);
  }
  if (ec) {
    error_ = "cannot create spool dirs under " + dir_ + ": " + ec.message();
    return;
  }
  ok_ = true;
}

std::string Spool::EncodeTask(const SpoolTask& task) {
  return "{\"task_schema\":2,\"key\":\"" + JsonEscape(task.key) + "\",\"spec\":\"" +
         JsonEscape(task.spec) + "\"," + CellMetaJson(task.cell) + "}";
}

bool Spool::DecodeTask(const std::string& text, SpoolTask* task) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(text, &doc, &error) || !doc.IsObject()) {
    return false;
  }
  const JsonValue* schema = doc.Get("task_schema");
  const JsonValue* key = doc.Get("key");
  const JsonValue* spec = doc.Get("spec");
  if (schema == nullptr || schema->number != "2" || key == nullptr || !key->IsString() ||
      spec == nullptr || !spec->IsString() || !DecodeCellMeta(doc, &task->cell)) {
    return false;
  }
  task->key = key->string_value;
  task->spec = spec->string_value;
  return true;
}

bool Spool::TaskSpec(const SpoolTask& task, SweepSpec* spec, std::string* error) {
  // The policy and mix join the rest of the cell in one strict grammar; a
  // separator in the policy field would smuggle in more than one name.
  if (task.cell.policy.find_first_of(";,") != std::string::npos) {
    *error = "spool task policy '" + task.cell.policy + "' is not one policy name";
    return false;
  }
  return ParseSweepSpec(
      task.spec + ";policies=" + task.cell.policy + ";mixes=" + std::to_string(task.cell.mix),
      spec, error);
}

bool Spool::Offer(const SpoolTask& task) {
  if (!ok_) {
    return false;
  }
  const fs::path todo = fs::path(todo_dir_) / (task.key + ".task");
  std::error_code ec;
  if (fs::exists(todo, ec)) {
    return true;  // already offered
  }
  const fs::path tmp = fs::path(dir_) / ("tmp-" + task.key + "-" + PidSuffix());
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out.is_open()) {
      return false;
    }
    out << EncodeTask(task) << "\n";
    out.flush();
    if (!out.good()) {
      std::error_code rm_ec;
      fs::remove(tmp, rm_ec);
      return false;
    }
  }
  fs::rename(tmp, todo, ec);
  if (ec) {
    std::error_code rm_ec;
    fs::remove(tmp, rm_ec);
    return false;
  }
  return true;
}

bool Spool::TryClaimKey(const std::string& key) {
  if (!ok_) {
    // No spool: the caller owns every cell it asks about.
    return true;
  }
  const fs::path todo = fs::path(todo_dir_) / (key + ".task");
  const fs::path claim = fs::path(claimed_dir_) / (key + "." + PidSuffix());
  std::error_code ec;
  fs::rename(todo, claim, ec);
  return !ec;
}

bool Spool::ClaimNext(SpoolTask* task) {
  if (!ok_) {
    return false;
  }
  struct Pending {
    fs::path path;
    fs::file_time_type mtime;
  };
  std::vector<Pending> pending;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(todo_dir_, ec)) {
    if (ec) {
      return false;
    }
    std::error_code file_ec;
    if (item.is_regular_file(file_ec) && item.path().extension() == ".task") {
      pending.push_back(Pending{item.path(), item.last_write_time(file_ec)});
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) { return a.mtime < b.mtime; });
  for (const Pending& candidate : pending) {
    const std::string key = candidate.path.stem().string();
    const fs::path claim = fs::path(claimed_dir_) / (key + "." + PidSuffix());
    std::error_code rename_ec;
    fs::rename(candidate.path, claim, rename_ec);
    if (rename_ec) {
      continue;  // another process won this cell
    }
    std::string text;
    if (!ReadFileText(claim, &text) || !DecodeTask(text, task)) {
      // Undecodable task: drop the claim so the cell is not silently lost
      // (the coordinator's timeout fallback re-simulates it locally).
      std::error_code rm_ec;
      fs::remove(claim, rm_ec);
      continue;
    }
    return true;
  }
  return false;
}

bool Spool::FinishKey(const std::string& key) {
  if (!ok_) {
    return false;
  }
  std::error_code ec;
  return fs::remove(fs::path(claimed_dir_) / (key + "." + PidSuffix()), ec) && !ec;
}

bool Spool::RequestStop() {
  if (!ok_) {
    return false;
  }
  std::ofstream out(fs::path(dir_) / "stop", std::ios::out | std::ios::trunc);
  return out.good();
}

bool Spool::StopRequested() const {
  if (!ok_) {
    return true;
  }
  std::error_code ec;
  return fs::exists(fs::path(dir_) / "stop", ec);
}

std::size_t Spool::PendingCount() const {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(todo_dir_, ec)) {
    if (ec) {
      return count;
    }
    std::error_code file_ec;
    if (item.is_regular_file(file_ec) && item.path().extension() == ".task") {
      ++count;
    }
  }
  return count;
}

std::size_t RunSpoolWorker(Spool* spool, ResultCache* cache, const SpoolWorkerOptions& options) {
  std::size_t executed = 0;
  auto idle_since = std::chrono::steady_clock::now();
  while (!spool->StopRequested()) {
    SpoolTask task;
    if (!spool->ClaimNext(&task)) {
      if (options.idle_timeout_s > 0.0) {
        const double idle_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - idle_since).count();
        if (idle_s >= options.idle_timeout_s) {
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    idle_since = std::chrono::steady_clock::now();
    SweepSpec spec;
    std::string error;
    if (!Spool::TaskSpec(task, &spec, &error)) {
      // Unrunnable task (version skew): abandon the claim; the coordinator's
      // timeout fallback covers the cell.
      spool->FinishKey(task.key);
      continue;
    }
    if (options.cell_delay_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(options.cell_delay_s));
    }
    cache->Store(task.key, task.cell,
                 RunOnce(spec.machine, spec.policies.front(), MixJobs(spec, spec.mixes.front()),
                         task.cell.seed, spec.engine));
    spool->FinishKey(task.key);
    ++executed;
  }
  return executed;
}

}  // namespace affsched
