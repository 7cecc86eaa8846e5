#include "src/serve/result_cache.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "src/runner/cell_seed.h"
#include "src/telemetry/json.h"

namespace fs = std::filesystem;

namespace affsched {

namespace {

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

// JobStats fields in a fixed order. Every field the sweep JSON derives from
// must round-trip exactly, or a resumed sweep's document would drift from
// the uninterrupted one.
void AppendStats(const JobStats& stats, std::ostringstream& o) {
  o << "{\"arrival\":" << stats.arrival << ",\"completion\":" << stats.completion
    << ",\"queue_wait_s\":" << ExactDouble(stats.queue_wait_s)
    << ",\"useful_work_s\":" << ExactDouble(stats.useful_work_s)
    << ",\"reload_stall_s\":" << ExactDouble(stats.reload_stall_s)
    << ",\"steady_stall_s\":" << ExactDouble(stats.steady_stall_s)
    << ",\"switch_s\":" << ExactDouble(stats.switch_s)
    << ",\"waste_s\":" << ExactDouble(stats.waste_s)
    << ",\"alloc_integral_s\":" << ExactDouble(stats.alloc_integral_s)
    << ",\"reallocations\":" << stats.reallocations
    << ",\"affinity_dispatches\":" << stats.affinity_dispatches
    << ",\"mig_core\":" << stats.migrations_same_core
    << ",\"mig_cluster\":" << stats.migrations_same_cluster
    << ",\"mig_node\":" << stats.migrations_same_node
    << ",\"mig_cross\":" << stats.migrations_cross_node
    << ",\"reload_llc_s\":" << ExactDouble(stats.reload_llc_s)
    << ",\"reload_remote_s\":" << ExactDouble(stats.reload_remote_s)
    << ",\"steal_cluster\":" << stats.steals_same_cluster
    << ",\"steal_node\":" << stats.steals_same_node
    << ",\"steal_cross\":" << stats.steals_cross_node
    << ",\"balance_migrations\":" << stats.balance_migrations
    << ",\"deadline_misses\":" << stats.deadline_misses
    << ",\"tardiness_s\":" << ExactDouble(stats.tardiness_s)
    << ",\"worst_reload_s\":" << ExactDouble(stats.worst_reload_s) << "}";
}

// Reads one required numeric member; false when absent or non-numeric.
bool GetNum(const JsonValue& obj, const char* key, const JsonValue** out) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->IsNumber()) {
    return false;
  }
  *out = v;
  return true;
}

bool DecodeStats(const JsonValue& obj, JobStats* stats) {
  if (!obj.IsObject()) {
    return false;
  }
  const JsonValue* v = nullptr;
  if (!GetNum(obj, "arrival", &v)) return false;
  stats->arrival = v->AsInt64();
  if (!GetNum(obj, "completion", &v)) return false;
  stats->completion = v->AsInt64();
  if (!GetNum(obj, "queue_wait_s", &v)) return false;
  stats->queue_wait_s = v->AsDouble();
  if (!GetNum(obj, "useful_work_s", &v)) return false;
  stats->useful_work_s = v->AsDouble();
  if (!GetNum(obj, "reload_stall_s", &v)) return false;
  stats->reload_stall_s = v->AsDouble();
  if (!GetNum(obj, "steady_stall_s", &v)) return false;
  stats->steady_stall_s = v->AsDouble();
  if (!GetNum(obj, "switch_s", &v)) return false;
  stats->switch_s = v->AsDouble();
  if (!GetNum(obj, "waste_s", &v)) return false;
  stats->waste_s = v->AsDouble();
  if (!GetNum(obj, "alloc_integral_s", &v)) return false;
  stats->alloc_integral_s = v->AsDouble();
  if (!GetNum(obj, "reallocations", &v)) return false;
  stats->reallocations = v->AsUint64();
  if (!GetNum(obj, "affinity_dispatches", &v)) return false;
  stats->affinity_dispatches = v->AsUint64();
  if (!GetNum(obj, "mig_core", &v)) return false;
  stats->migrations_same_core = v->AsUint64();
  if (!GetNum(obj, "mig_cluster", &v)) return false;
  stats->migrations_same_cluster = v->AsUint64();
  if (!GetNum(obj, "mig_node", &v)) return false;
  stats->migrations_same_node = v->AsUint64();
  if (!GetNum(obj, "mig_cross", &v)) return false;
  stats->migrations_cross_node = v->AsUint64();
  if (!GetNum(obj, "reload_llc_s", &v)) return false;
  stats->reload_llc_s = v->AsDouble();
  if (!GetNum(obj, "reload_remote_s", &v)) return false;
  stats->reload_remote_s = v->AsDouble();
  if (!GetNum(obj, "steal_cluster", &v)) return false;
  stats->steals_same_cluster = v->AsUint64();
  if (!GetNum(obj, "steal_node", &v)) return false;
  stats->steals_same_node = v->AsUint64();
  if (!GetNum(obj, "steal_cross", &v)) return false;
  stats->steals_cross_node = v->AsUint64();
  if (!GetNum(obj, "balance_migrations", &v)) return false;
  stats->balance_migrations = v->AsUint64();
  if (!GetNum(obj, "deadline_misses", &v)) return false;
  stats->deadline_misses = v->AsUint64();
  if (!GetNum(obj, "tardiness_s", &v)) return false;
  stats->tardiness_s = v->AsDouble();
  if (!GetNum(obj, "worst_reload_s", &v)) return false;
  stats->worst_reload_s = v->AsDouble();
  return true;
}

}  // namespace

ResultCache::ResultCache(const ResultCacheOptions& options) : options_(options) {
  if (options_.dir.empty()) {
    error_ = "empty cache directory";
    return;
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    error_ = "cannot create cache dir " + options_.dir + ": " + ec.message();
    return;
  }
  ok_ = true;
}

std::string ResultCache::EncodeEntry(const std::string& key, const CellEntryMeta& meta,
                                     const RunResult& result) {
  std::ostringstream o;
  o << "{\"entry_schema\":2,\"key\":\"" << JsonEscape(key) << "\",\"policy\":\""
    << JsonEscape(meta.policy) << "\",\"mix\":" << meta.mix << ",\"rep\":" << meta.replication
    << ",\"seed\":" << SeedToDecimal(meta.seed) << ",\"makespan\":" << result.makespan
    << ",\"events\":" << result.events << ",\"jobs\":[";
  for (size_t j = 0; j < result.jobs.size(); ++j) {
    o << (j > 0 ? "," : "") << "{\"app\":\"" << JsonEscape(result.jobs[j].app) << "\",\"stats\":";
    AppendStats(result.jobs[j].stats, o);
    o << "}";
  }
  o << "]}";
  return o.str();
}

bool ResultCache::DecodeEntry(const std::string& text, RunResult* out, CellEntryMeta* meta) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(text, &doc, &error) || !doc.IsObject()) {
    return false;
  }
  const JsonValue* schema = doc.Get("entry_schema");
  if (schema == nullptr || schema->AsInt64(-1) != 2) {
    return false;
  }
  const JsonValue* makespan = nullptr;
  const JsonValue* events = nullptr;
  if (!GetNum(doc, "makespan", &makespan) || !GetNum(doc, "events", &events)) {
    return false;
  }
  const JsonValue* jobs = doc.Get("jobs");
  if (jobs == nullptr || !jobs->IsArray()) {
    return false;
  }
  RunResult result;
  result.makespan = makespan->AsInt64();
  result.events = events->AsUint64();
  result.jobs.reserve(jobs->array.size());
  for (const JsonValue& job : jobs->array) {
    const JsonValue* app = job.Get("app");
    const JsonValue* stats = job.Get("stats");
    if (app == nullptr || !app->IsString() || stats == nullptr) {
      return false;
    }
    JobResult decoded;
    decoded.app = app->string_value;
    if (!DecodeStats(*stats, &decoded.stats)) {
      return false;
    }
    result.jobs.push_back(std::move(decoded));
  }
  if (meta != nullptr) {
    static const std::string kEmpty;
    const JsonValue* policy = doc.Get("policy");
    meta->policy = policy != nullptr ? policy->AsString(kEmpty) : kEmpty;
    const JsonValue* mix = doc.Get("mix");
    meta->mix = mix != nullptr ? static_cast<int>(mix->AsInt64()) : 0;
    const JsonValue* rep = doc.Get("rep");
    meta->replication = rep != nullptr ? static_cast<std::size_t>(rep->AsUint64()) : 0;
    const JsonValue* seed = doc.Get("seed");
    meta->seed = seed != nullptr ? seed->AsUint64() : 0;
  }
  *out = std::move(result);
  return true;
}

bool ResultCache::Probe(const std::string& key, RunResult* out) {
  if (!ok_) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const fs::path path = fs::path(options_.dir) / EntryFileName(key);
  std::string text;
  if (!ReadFileText(path, &text)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!DecodeEntry(text, out)) {
    // Torn or truncated entry: drop it so the slot can be rebuilt cleanly,
    // and report a miss so the caller re-simulates.
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::error_code ec;
    fs::remove(path, ec);
    return false;
  }
  // LRU touch: probes keep hot entries alive under a size budget.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ResultCache::Contains(const std::string& key) const {
  if (!ok_) {
    return false;
  }
  std::error_code ec;
  return fs::exists(fs::path(options_.dir) / EntryFileName(key), ec);
}

bool ResultCache::Store(const std::string& key, const CellEntryMeta& meta,
                        const RunResult& result) {
  if (!ok_) {
    return false;
  }
  const std::string text = EncodeEntry(key, meta, result);
  const fs::path dir(options_.dir);
  const fs::path tmp =
      dir / ("tmp-" + key + "-" + std::to_string(static_cast<long>(::getpid())));
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc | std::ios::binary);
    if (!out.is_open()) {
      store_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    out << text << "\n";
    out.flush();
    if (!out.good()) {
      store_errors_.fetch_add(1, std::memory_order_relaxed);
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, dir / EntryFileName(key), ec);
  if (ec) {
    store_errors_.fetch_add(1, std::memory_order_relaxed);
    std::error_code rm_ec;
    fs::remove(tmp, rm_ec);
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  if (options_.max_bytes > 0) {
    EvictOverBudget(key);
  }
  return true;
}

void ResultCache::EvictOverBudget(const std::string& keep_key) {
  std::lock_guard<std::mutex> lock(evict_mu_);
  struct EntryInfo {
    fs::path path;
    uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<EntryInfo> entries;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(options_.dir, ec)) {
    if (ec) {
      return;
    }
    if (!item.is_regular_file(ec) || item.path().extension() != ".cell") {
      continue;
    }
    EntryInfo info;
    info.path = item.path();
    info.size = item.file_size(ec);
    info.mtime = item.last_write_time(ec);
    total += info.size;
    entries.push_back(std::move(info));
  }
  if (total <= options_.max_bytes) {
    return;
  }
  std::sort(entries.begin(), entries.end(),
            [](const EntryInfo& a, const EntryInfo& b) { return a.mtime < b.mtime; });
  const std::string keep_name = EntryFileName(keep_key);
  for (const EntryInfo& entry : entries) {
    if (total <= options_.max_bytes) {
      break;
    }
    if (entry.path.filename() == keep_name) {
      continue;
    }
    std::error_code rm_ec;
    if (fs::remove(entry.path, rm_ec) && !rm_ec) {
      total -= entry.size;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::size_t ResultCache::EntryCount() const {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(options_.dir, ec)) {
    if (ec) {
      return count;
    }
    std::error_code file_ec;
    if (item.is_regular_file(file_ec) && item.path().extension() == ".cell") {
      ++count;
    }
  }
  return count;
}

uint64_t ResultCache::TotalBytes() const {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(options_.dir, ec)) {
    if (ec) {
      return total;
    }
    std::error_code file_ec;
    if (item.is_regular_file(file_ec) && item.path().extension() == ".cell") {
      total += item.file_size(file_ec);
    }
  }
  return total;
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.corrupt = corrupt_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  stats.store_errors = store_errors_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

std::string ResultCache::StatsJson() const {
  const ResultCacheStats s = stats();
  std::ostringstream o;
  o << "{\"entries\":" << EntryCount() << ",\"bytes\":" << TotalBytes() << ",\"hits\":" << s.hits
    << ",\"misses\":" << s.misses << ",\"corrupt\":" << s.corrupt << ",\"stores\":" << s.stores
    << ",\"store_errors\":" << s.store_errors << ",\"evictions\":" << s.evictions << "}";
  return o.str();
}

}  // namespace affsched
