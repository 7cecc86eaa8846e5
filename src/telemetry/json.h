// The repo's one JSON toolkit. Writing: string escaping, number formatting
// that always yields valid JSON (no "nan"/"inf" literals), a bit-exact
// double formatter, and a document-file writer. Reading: a strict,
// dependency-free recursive-descent parser into a small DOM, used for
// wire-protocol requests off the daemon socket, cached cell entries, spool
// task files, and the exporters' own validity self-checks.
//
// Strictness matters for the result cache: a truncated entry (the process
// was SIGKILLed mid-write, the disk filled up) must fail to parse so the
// probe treats it as a miss and the cell is re-simulated — never half-read.
// The parser follows RFC 8259 (no leading zeros, no trailing commas, no
// single quotes); it additionally rejects \u escapes in the surrogate range
// (no writer in this repo produces them) and nesting deeper than 64.
//
// Numbers keep their raw source text alongside the converted double, so a
// value written with %.17g round-trips to the bit-identical double (the
// property the checkpoint/resume path depends on for byte-identical result
// documents).

#ifndef SRC_TELEMETRY_JSON_H_
#define SRC_TELEMETRY_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace affsched {

// Escapes `s` for inclusion inside a JSON string literal (quotes not added).
std::string JsonEscape(const std::string& s);

// Formats a double as a JSON number. Non-finite values (which JSON cannot
// represent) become null. Integral values print without a fraction so counter
// totals stay exactly comparable across runs.
std::string JsonNumber(double value);

// Formats a double so that ParseJson + AsDouble returns the bit-identical
// value: JsonNumber's spelling, except that negative zero keeps its sign.
// Non-finite values (unrepresentable in JSON) become "null", which fails
// DecodeEntry-style strict readers — by design, a cell with NaN accounting
// is not cacheable.
std::string ExactDouble(double value);

// Writes `json` plus a trailing newline to `path` (truncating). Returns false
// on any I/O failure.
bool WriteJsonDocument(const std::string& path, const std::string& json);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  // Numbers: the exact source token (e.g. "0.10000000000000001") — convert
  // on demand so 64-bit integers and bit-exact doubles both survive.
  std::string number;
  std::string string_value;
  std::vector<JsonValue> array;
  // Object members in source order (duplicates keep the last).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsBool() const { return kind == Kind::kBool; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;

  // Typed accessors with defaults (never throw; wrong-kind reads return the
  // fallback so protocol handlers can validate with explicit checks).
  double AsDouble(double fallback = 0.0) const;
  int64_t AsInt64(int64_t fallback = 0) const;
  uint64_t AsUint64(uint64_t fallback = 0) const;
  const std::string& AsString(const std::string& fallback) const;
  bool AsBool(bool fallback = false) const;
};

// Parses exactly one JSON value spanning the whole of `text` (leading and
// trailing whitespace allowed, trailing garbage is an error). Returns false
// and sets `error` (with a byte offset) on malformed input.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// True if `text` is one complete, syntactically valid JSON value (object,
// array, string, number, true/false/null) with no trailing garbage.
bool IsValidJson(const std::string& text);

}  // namespace affsched

#endif  // SRC_TELEMETRY_JSON_H_
