#include "src/serve/result_cache.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <system_error>
#include <variant>
#include <vector>

#include "src/common/flags.h"
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

// Strict number readers: integers must be one whole token in range, so a
// mix of 4294967297 does not wrap to 1 and a rep of 1.5 is not read as 1.
bool ReadNumber(const JsonValue* v, double* out) {
  if (v == nullptr || !v->IsNumber()) {
    return false;
  }
  *out = v->AsDouble();
  return true;
}

bool ReadNumber(const JsonValue* v, uint64_t* out) {
  return v != nullptr && v->IsNumber() && ParseUint64(v->number, out);
}

bool ReadNumber(const JsonValue* v, int64_t* out) {
  return v != nullptr && v->IsNumber() && ParseInt64(v->number, out);
}

// Doubles go through ExactDouble so a resumed sweep's document cannot drift
// from the uninterrupted one.
void WriteNumber(std::ostream& o, double v) { o << ExactDouble(v); }

template <typename Int>
void WriteNumber(std::ostream& o, Int v) {
  o << v;
}

// Every field of kJobStatsFields, in table order.
void AppendStats(const JobStats& stats, std::ostringstream& o) {
  char sep = '{';
  for (const JobStatsField& field : kJobStatsFields) {
    o << sep << '"' << field.name << "\":";
    std::visit([&](auto member) { WriteNumber(o, stats.*member); }, field.member);
    sep = ',';
  }
  o << '}';
}

bool DecodeStats(const JsonValue& obj, JobStats* stats) {
  for (const JobStatsField& field : kJobStatsFields) {
    const JsonValue* v = obj.Get(field.name);
    if (!std::visit([&](auto member) { return ReadNumber(v, &(stats->*member)); },
                    field.member)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string CellMetaJson(const CellEntryMeta& meta) {
  return "\"policy\":\"" + JsonEscape(meta.policy) + "\",\"mix\":" + std::to_string(meta.mix) +
         ",\"rep\":" + std::to_string(meta.replication) + ",\"seed\":" + SeedToDecimal(meta.seed);
}

bool DecodeCellMeta(const JsonValue& doc, CellEntryMeta* meta) {
  const JsonValue* policy = doc.Get("policy");
  int64_t mix = 0;
  uint64_t replication = 0;
  if (policy == nullptr || !policy->IsString() || !ReadNumber(doc.Get("mix"), &mix) ||
      mix < std::numeric_limits<int>::min() || mix > std::numeric_limits<int>::max() ||
      !ReadNumber(doc.Get("rep"), &replication) || !ReadNumber(doc.Get("seed"), &meta->seed)) {
    return false;
  }
  meta->policy = policy->string_value;
  meta->mix = static_cast<int>(mix);
  meta->replication = static_cast<std::size_t>(replication);
  return true;
}

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
  o << "{\"entry_schema\":2,\"key\":\"" << JsonEscape(key) << "\"," << CellMetaJson(meta)
    << ",\"makespan\":" << result.makespan << ",\"events\":" << result.events << ",\"jobs\":[";
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
  const JsonValue* jobs = doc.Get("jobs");
  RunResult result;
  CellEntryMeta decoded_meta;
  if (schema == nullptr || schema->number != "2" || !DecodeCellMeta(doc, &decoded_meta) ||
      !ReadNumber(doc.Get("makespan"), &result.makespan) ||
      !ReadNumber(doc.Get("events"), &result.events) || jobs == nullptr || !jobs->IsArray()) {
    return false;
  }
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
    *meta = std::move(decoded_meta);
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
