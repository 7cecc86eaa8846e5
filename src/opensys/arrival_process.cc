#include "src/opensys/arrival_process.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "src/common/check.h"
#include "src/common/flags.h"
#include "src/telemetry/json.h"

namespace affsched {

namespace {

// Picks an application index by weight; `pick` in [0, total).
size_t PickApp(const std::vector<double>& weights, double total, double pick) {
  size_t app = 0;
  for (size_t a = 0; a < weights.size(); ++a) {
    pick -= weights[a];
    if (pick <= 0.0) {
      return a;
    }
    app = a;  // fall through to the last app on rounding
  }
  return app;
}

}  // namespace

void CheckAppWeights(const std::vector<double>& app_weights) {
  AFF_CHECK_MSG(!app_weights.empty(), "application weight vector is empty");
  double total = 0.0;
  for (size_t i = 0; i < app_weights.size(); ++i) {
    AFF_CHECK_MSG(std::isfinite(app_weights[i]), "application weight is not finite");
    AFF_CHECK_MSG(app_weights[i] >= 0.0, "application weight is negative");
    total += app_weights[i];
  }
  AFF_CHECK_MSG(total > 0.0, "application weights sum to zero: every job class has weight 0");
}

PoissonProcess::PoissonProcess(SimDuration mean_interarrival, std::vector<double> app_weights)
    : mean_interarrival_(mean_interarrival), app_weights_(std::move(app_weights)) {
  AFF_CHECK_MSG(mean_interarrival_ > 0, "mean inter-arrival time must be positive");
  CheckAppWeights(app_weights_);
  total_weight_ = 0.0;
  for (double w : app_weights_) {
    total_weight_ += w;
  }
}

void PoissonProcess::Reset(uint64_t seed) {
  rng_ = Rng(seed);
  now_ = 0;
}

bool PoissonProcess::Next(ArrivalPlanEntry* out) {
  now_ += Seconds(rng_.NextExponential(ToSeconds(mean_interarrival_)));
  out->when = now_;
  out->app_index = PickApp(app_weights_, total_weight_, rng_.NextDouble() * total_weight_);
  return true;
}

OnOffProcess::OnOffProcess(const Params& params, std::vector<double> app_weights)
    : params_(params), app_weights_(std::move(app_weights)) {
  AFF_CHECK_MSG(params_.on_interarrival > 0, "on-phase inter-arrival time must be positive");
  AFF_CHECK_MSG(params_.mean_on > 0, "mean on-phase duration must be positive");
  AFF_CHECK_MSG(params_.mean_off > 0, "mean off-phase duration must be positive");
  CheckAppWeights(app_weights_);
  total_weight_ = 0.0;
  for (double w : app_weights_) {
    total_weight_ += w;
  }
}

void OnOffProcess::Reset(uint64_t seed) {
  rng_ = Rng(seed);
  now_ = 0;
  on_ = true;
  phase_end_ = Seconds(rng_.NextExponential(ToSeconds(params_.mean_on)));
}

bool OnOffProcess::Next(ArrivalPlanEntry* out) {
  for (;;) {
    if (!on_) {
      // Silence: jump to the end of the off phase and start a new burst.
      now_ = phase_end_;
      on_ = true;
      phase_end_ = now_ + Seconds(rng_.NextExponential(ToSeconds(params_.mean_on)));
      continue;
    }
    const SimDuration gap = Seconds(rng_.NextExponential(ToSeconds(params_.on_interarrival)));
    if (now_ + gap <= phase_end_) {
      now_ += gap;
      out->when = now_;
      out->app_index = PickApp(app_weights_, total_weight_, rng_.NextDouble() * total_weight_);
      return true;
    }
    // The draw crossed the burst boundary: the exponential is memoryless, so
    // discard it, enter the off phase, and re-draw there.
    now_ = phase_end_;
    on_ = false;
    phase_end_ = now_ + Seconds(rng_.NextExponential(ToSeconds(params_.mean_off)));
  }
}

TraceArrivalProcess::TraceArrivalProcess(std::vector<ArrivalPlanEntry> entries)
    : entries_(std::move(entries)) {
  for (size_t i = 1; i < entries_.size(); ++i) {
    AFF_CHECK_MSG(entries_[i - 1].when <= entries_[i].when, "trace entries must be time-sorted");
  }
}

void TraceArrivalProcess::Reset(uint64_t /*seed*/) { next_ = 0; }

bool TraceArrivalProcess::Next(ArrivalPlanEntry* out) {
  if (next_ >= entries_.size()) {
    return false;
  }
  *out = entries_[next_++];
  return true;
}

namespace {

bool Fail(std::string* error, size_t line_no, const std::string& message) {
  if (error != nullptr) {
    std::ostringstream o;
    o << "line " << line_no << ": " << message;
    *error = o.str();
  }
  return false;
}

bool ValidateAndAppend(double t_s, double app, size_t line_no,
                       std::vector<ArrivalPlanEntry>* out, std::string* error) {
  // Bounded before the integer casts below, which overflow otherwise.
  if (!std::isfinite(t_s) || t_s < 0.0 || t_s > kMaxTraceSeconds) {
    return Fail(error, line_no, "arrival time must be a number in [0, 1e9] seconds");
  }
  if (!std::isfinite(app) || app < 0.0 || app != std::floor(app) ||
      app > static_cast<double>(UINT32_MAX)) {
    return Fail(error, line_no, "app index must be an integer in [0, 4294967295]");
  }
  ArrivalPlanEntry entry;
  entry.when = Seconds(t_s);
  entry.app_index = static_cast<size_t>(app);
  if (!out->empty() && entry.when < out->back().when) {
    return Fail(error, line_no, "arrival times must be non-decreasing");
  }
  out->push_back(entry);
  return true;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

// Reads the numeric member `key` of a parsed JSONL row.
bool JsonNumberField(const JsonValue& row, const char* key, double* value) {
  const JsonValue* field = row.Get(key);
  if (field == nullptr || !field->IsNumber()) {
    return false;
  }
  *value = field->AsDouble();
  return true;
}

}  // namespace

bool ParseArrivalTraceCsv(const std::string& text, std::vector<ArrivalPlanEntry>* out,
                          std::string* error) {
  out->clear();
  size_t line_no = 0;
  bool first_data_line = true;
  for (std::string line : SplitList(text, '\n')) {
    ++line_no;
    line = Trim(line);
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Fail(error, line_no, "expected 't_seconds,app_index'");
    }
    double t_s = 0.0;
    double app = 0.0;
    const bool ok = ParseDouble(Trim(line.substr(0, comma)), &t_s) &&
                    ParseDouble(Trim(line.substr(comma + 1)), &app);
    if (!ok) {
      if (first_data_line) {
        // Tolerate one header line ("t_s,app").
        first_data_line = false;
        continue;
      }
      return Fail(error, line_no, "expected 't_seconds,app_index'");
    }
    first_data_line = false;
    if (!ValidateAndAppend(t_s, app, line_no, out, error)) {
      return false;
    }
  }
  return true;
}

bool ParseArrivalTraceJsonl(const std::string& text, std::vector<ArrivalPlanEntry>* out,
                            std::string* error) {
  out->clear();
  size_t line_no = 0;
  for (const std::string& line : SplitList(text, '\n')) {
    ++line_no;
    if (Trim(line).empty()) {
      continue;
    }
    JsonValue row;
    std::string json_error;
    if (!ParseJson(line, &row, &json_error)) {
      return Fail(error, line_no, "malformed JSON: " + json_error);
    }
    double t_s = 0.0;
    double app = 0.0;
    if (!JsonNumberField(row, "t_s", &t_s)) {
      return Fail(error, line_no, "missing or malformed \"t_s\" field");
    }
    if (!JsonNumberField(row, "app", &app)) {
      return Fail(error, line_no, "missing or malformed \"app\" field");
    }
    if (!ValidateAndAppend(t_s, app, line_no, out, error)) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<TraceArrivalProcess> LoadArrivalTraceFile(const std::string& path,
                                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open trace file: " + path;
    }
    return nullptr;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const bool jsonl = path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  std::vector<ArrivalPlanEntry> entries;
  std::string parse_error;
  const bool ok = jsonl ? ParseArrivalTraceJsonl(buffer.str(), &entries, &parse_error)
                        : ParseArrivalTraceCsv(buffer.str(), &entries, &parse_error);
  if (!ok) {
    if (error != nullptr) {
      *error = path + ": " + parse_error;
    }
    return nullptr;
  }
  return std::make_unique<TraceArrivalProcess>(std::move(entries));
}

std::vector<ArrivalPlanEntry> GenerateArrivals(ArrivalProcess& process, uint64_t seed,
                                               size_t max_count, SimTime t_end) {
  const bool finite = dynamic_cast<TraceArrivalProcess*>(&process) != nullptr;
  AFF_CHECK_MSG(max_count > 0 || t_end > 0 || finite,
                "unbounded generation: set max_count or t_end");
  process.Reset(seed);
  std::vector<ArrivalPlanEntry> plan;
  if (max_count > 0) {
    plan.reserve(max_count);
  }
  ArrivalPlanEntry entry;
  while ((max_count == 0 || plan.size() < max_count) && process.Next(&entry)) {
    if (t_end > 0 && entry.when >= t_end) {
      break;  // the first arrival past the horizon is discarded
    }
    plan.push_back(entry);
  }
  return plan;
}

std::vector<ArrivalPlanEntry> PoissonArrivals(size_t count, SimDuration mean_interarrival,
                                              const std::vector<double>& app_weights,
                                              uint64_t seed) {
  PoissonProcess process(mean_interarrival, app_weights);
  return GenerateArrivals(process, seed, count, /*t_end=*/0);
}

std::vector<ArrivalPlanEntry> PoissonArrivalsUntil(SimTime t_end, SimDuration mean_interarrival,
                                                   const std::vector<double>& app_weights,
                                                   uint64_t seed) {
  AFF_CHECK_MSG(t_end > 0, "horizon must be positive");
  PoissonProcess process(mean_interarrival, app_weights);
  return GenerateArrivals(process, seed, /*max_count=*/0, t_end);
}

}  // namespace affsched
