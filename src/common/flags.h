// Minimal command-line flag parsing for the benchmark and example binaries,
// plus the strict scalar readers and spec-text splitters every parser in the
// repo (flags, sweep specs, topology specs) shares.
//
// Supports "--name=value", "--name value", bare boolean "--name", and "--help"
// generation. Unknown flags are errors (typos should not silently run the
// wrong experiment).

#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace affsched {

// Strict scalar readers. Each consumes the whole of `text` (no whitespace, no
// leading '+', no trailing characters) and rejects values that do not fit the
// type; ParseDouble also rejects nan and inf. On failure they return false
// and leave *out unchanged.
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseUint64(std::string_view text, uint64_t* out);
bool ParseDouble(std::string_view text, double* out);
// Accepts 1/true/on and 0/false/off.
bool ParseBool(std::string_view text, bool* out);

// Splits on `sep`, keeping empty items: "a,,b" -> {"a", "", "b"} and
// "" -> {""}, so a stray separator reaches the item parser as an error.
std::vector<std::string> SplitList(std::string_view text, char sep);

// A "head<sep>key=value<sep>..." spec: an optional preset name followed by
// overrides in source order.
struct SpecText {
  std::string head;  // empty when the text opens with a key=value override
  std::vector<std::pair<std::string, std::string>> overrides;
};

// Splits `text` into a SpecText. The first item is the head unless it
// contains '='; empty items after it are skipped. Returns false and sets
// *error (naming `what`, e.g. "sweep") on empty text, an empty head, or an
// override without '='.
bool SplitSpecText(std::string_view text, char sep, const char* what, SpecText* out,
                   std::string* error);

class FlagSet {
 public:
  explicit FlagSet(std::string program_description);

  // Registers flags with defaults. `help` appears in --help output.
  void AddInt(const std::string& name, int64_t default_value, const std::string& help);
  void AddDouble(const std::string& name, double default_value, const std::string& help);
  void AddBool(const std::string& name, bool default_value, const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);

  // Parses argv. Returns false (after printing a message) on --help or on a
  // parse error; callers should exit(0) / exit(1) respectively via the
  // `help_requested` distinction.
  bool Parse(int argc, const char* const* argv);
  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }

  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;

  // Rendered --help text.
  std::string Help() const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    Type type;
    std::string help;
    std::string value;    // current (parsed or default), textual
    std::string default_value;
  };

  const Flag& Lookup(const std::string& name, Type type) const;
  bool SetValue(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace affsched

#endif  // SRC_COMMON_FLAGS_H_
