#include "src/common/flags.h"

#include <charconv>
#include <cmath>
#include <sstream>

#include "src/common/check.h"

namespace affsched {

namespace {

template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseInt64(std::string_view text, int64_t* out) { return ParseWhole(text, out); }

bool ParseUint64(std::string_view text, uint64_t* out) { return ParseWhole(text, out); }

bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  if (!ParseWhole(text, &value) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseBool(std::string_view text, bool* out) {
  if (text == "1" || text == "true" || text == "on") {
    *out = true;
  } else if (text == "0" || text == "false" || text == "off") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> SplitList(std::string_view text, char sep) {
  std::vector<std::string> items;
  size_t begin = 0;
  while (true) {
    const size_t end = text.find(sep, begin);
    items.emplace_back(text.substr(begin, end - begin));
    if (end == std::string_view::npos) {
      return items;
    }
    begin = end + 1;
  }
}

bool SplitSpecText(std::string_view text, char sep, const char* what, SpecText* out,
                   std::string* error) {
  if (text.empty()) {
    *error = std::string("empty ") + what + " spec";
    return false;
  }
  std::vector<std::string> items = SplitList(text, sep);
  *out = SpecText();
  size_t first_override = 0;
  if (items[0].find('=') == std::string::npos) {
    if (items[0].empty()) {
      *error = std::string(what) + " spec starts with an empty preset name";
      return false;
    }
    out->head = std::move(items[0]);
    first_override = 1;
  }
  for (size_t i = first_override; i < items.size(); ++i) {
    const std::string& item = items[i];
    if (item.empty()) {
      continue;
    }
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *error = "expected key=value, got '" + item + "'";
      return false;
    }
    out->overrides.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return true;
}

FlagSet::FlagSet(std::string program_description) : description_(std::move(program_description)) {}

void FlagSet::AddInt(const std::string& name, int64_t default_value, const std::string& help) {
  const std::string text = std::to_string(default_value);
  flags_[name] = Flag{Type::kInt, help, text, text};
}

void FlagSet::AddDouble(const std::string& name, double default_value, const std::string& help) {
  std::ostringstream out;
  out << default_value;
  flags_[name] = Flag{Type::kDouble, help, out.str(), out.str()};
}

void FlagSet::AddBool(const std::string& name, bool default_value, const std::string& help) {
  const std::string text = default_value ? "true" : "false";
  flags_[name] = Flag{Type::kBool, help, text, text};
}

void FlagSet::AddString(const std::string& name, const std::string& default_value,
                        const std::string& help) {
  flags_[name] = Flag{Type::kString, help, default_value, default_value};
}

bool FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    error_ = "unknown flag --" + name;
    return false;
  }
  Flag& flag = it->second;
  int64_t int_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
  const char* expected = nullptr;
  if (flag.type == Type::kInt && !ParseInt64(value, &int_value)) {
    expected = "an integer";
  } else if (flag.type == Type::kDouble && !ParseDouble(value, &double_value)) {
    expected = "a number";
  } else if (flag.type == Type::kBool && !ParseBool(value, &bool_value)) {
    expected = "true/false";
  }
  if (expected != nullptr) {
    error_ = "flag --" + name + " expects " + expected + ", got '" + value + "'";
    return false;
  }
  flag.value = value;
  return true;
}

bool FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument '" + arg + "'";
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      auto it = flags_.find(arg);
      if (it != flags_.end() && it->second.type == Type::kBool) {
        value = "true";  // bare boolean
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        error_ = "flag --" + arg + " is missing a value";
        return false;
      }
    }
    if (!SetValue(arg, value)) {
      return false;
    }
  }
  return true;
}

const FlagSet::Flag& FlagSet::Lookup(const std::string& name, Type type) const {
  auto it = flags_.find(name);
  AFF_CHECK_MSG(it != flags_.end(), "flag was never registered");
  AFF_CHECK_MSG(it->second.type == type, "flag accessed with wrong type");
  return it->second;
}

int64_t FlagSet::GetInt(const std::string& name) const {
  int64_t value = 0;
  AFF_CHECK(ParseInt64(Lookup(name, Type::kInt).value, &value));
  return value;
}

double FlagSet::GetDouble(const std::string& name) const {
  double value = 0.0;
  AFF_CHECK(ParseDouble(Lookup(name, Type::kDouble).value, &value));
  return value;
}

bool FlagSet::GetBool(const std::string& name) const {
  bool value = false;
  AFF_CHECK(ParseBool(Lookup(name, Type::kBool).value, &value));
  return value;
}

const std::string& FlagSet::GetString(const std::string& name) const {
  return Lookup(name, Type::kString).value;
}

std::string FlagSet::Help() const {
  std::ostringstream out;
  out << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.default_value << ")\n      " << flag.help
        << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace affsched
