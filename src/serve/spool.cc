#include "src/serve/spool.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include "src/apps/apps.h"
#include "src/measure/mixes.h"
#include "src/runner/cell_seed.h"
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
  std::ostringstream o;
  o << "{\"task_schema\":1,\"key\":\"" << JsonEscape(task.key) << "\",\"policy\":\""
    << JsonEscape(task.policy) << "\",\"mix\":" << task.mix << ",\"rep\":" << task.replication
    << ",\"seed\":" << SeedToDecimal(task.seed) << ",\"procs\":" << task.procs
    << ",\"speed\":" << ExactDouble(task.speed) << ",\"cache\":" << ExactDouble(task.cache)
    << ",\"topology\":\"" << JsonEscape(task.topology) << "\",\"balance_ns\":" << task.balance_ns
    << "}";
  return o.str();
}

bool Spool::DecodeTask(const std::string& text, SpoolTask* task) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(text, &doc, &error) || !doc.IsObject()) {
    return false;
  }
  const JsonValue* schema = doc.Get("task_schema");
  if (schema == nullptr || schema->AsInt64(-1) != 1) {
    return false;
  }
  const JsonValue* key = doc.Get("key");
  const JsonValue* policy = doc.Get("policy");
  const JsonValue* mix = doc.Get("mix");
  const JsonValue* rep = doc.Get("rep");
  const JsonValue* seed = doc.Get("seed");
  const JsonValue* procs = doc.Get("procs");
  const JsonValue* speed = doc.Get("speed");
  const JsonValue* cache = doc.Get("cache");
  const JsonValue* topology = doc.Get("topology");
  const JsonValue* balance = doc.Get("balance_ns");
  if (key == nullptr || !key->IsString() || policy == nullptr || !policy->IsString() ||
      mix == nullptr || !mix->IsNumber() || rep == nullptr || !rep->IsNumber() ||
      seed == nullptr || !seed->IsNumber() || procs == nullptr || !procs->IsNumber() ||
      speed == nullptr || !speed->IsNumber() || cache == nullptr || !cache->IsNumber() ||
      topology == nullptr || !topology->IsString() || balance == nullptr ||
      !balance->IsNumber()) {
    return false;
  }
  task->key = key->string_value;
  task->policy = policy->string_value;
  task->mix = static_cast<int>(mix->AsInt64());
  task->replication = static_cast<std::size_t>(rep->AsUint64());
  task->seed = seed->AsUint64();
  task->procs = static_cast<std::size_t>(procs->AsUint64());
  task->speed = speed->AsDouble();
  task->cache = cache->AsDouble();
  task->topology = topology->string_value;
  task->balance_ns = balance->AsInt64();
  return true;
}

SpoolTask Spool::MakeTask(const std::string& key, const SweepSpec& spec, PolicyKind policy,
                          int mix_number, std::size_t replication, uint64_t seed) {
  SpoolTask task;
  task.key = key;
  task.policy = PolicyKindCliName(policy);
  task.mix = mix_number;
  task.replication = replication;
  task.seed = seed;
  task.procs = spec.machine.num_processors;
  task.speed = spec.machine.processor_speed;
  task.cache = spec.machine.cache_size_factor;
  task.topology =
      spec.machine.topology.IsFlat() ? "flat" : spec.machine.topology.ToSpecString();
  task.balance_ns = spec.engine.balance_interval;
  return task;
}

bool Spool::TaskInputs(const SpoolTask& task, MachineConfig* machine, EngineOptions* engine,
                       PolicyKind* policy, std::vector<AppProfile>* jobs, std::string* error) {
  if (!PolicyKindFromName(task.policy, policy)) {
    *error = "unknown policy '" + task.policy + "' in spool task";
    return false;
  }
  if (task.mix < 1 || task.mix > 6) {
    *error = "mix number " + std::to_string(task.mix) + " out of range in spool task";
    return false;
  }
  *machine = MachineConfig();
  machine->num_processors = task.procs;
  machine->processor_speed = task.speed;
  machine->cache_size_factor = task.cache;
  if (task.topology != "flat" &&
      !ParseTopologySpec(task.topology, &machine->topology, error)) {
    return false;
  }
  const std::string machine_problem = machine->Validate();
  if (!machine_problem.empty()) {
    *error = machine_problem;
    return false;
  }
  *engine = EngineOptions();
  engine->balance_interval = task.balance_ns;
  *jobs = PaperMixes()[static_cast<std::size_t>(task.mix - 1)].Expand(DefaultProfiles());
  return true;
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
    MachineConfig machine;
    EngineOptions engine;
    PolicyKind policy;
    std::vector<AppProfile> jobs;
    std::string error;
    if (!Spool::TaskInputs(task, &machine, &engine, &policy, &jobs, &error)) {
      // Unrunnable task (version skew): abandon the claim; the coordinator's
      // timeout fallback covers the cell.
      spool->FinishKey(task.key);
      continue;
    }
    if (options.cell_delay_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(options.cell_delay_s));
    }
    const RunResult result = RunOnce(machine, policy, jobs, task.seed, engine);
    CellEntryMeta meta;
    meta.policy = task.policy;
    meta.mix = task.mix;
    meta.replication = task.replication;
    meta.seed = task.seed;
    cache->Store(task.key, meta, result);
    spool->FinishKey(task.key);
    ++executed;
  }
  return executed;
}

}  // namespace affsched
