#ifndef QIMAP_OBS_JSON_H_
#define QIMAP_OBS_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace qimap {
namespace obs {

/// A minimal JSON DOM, just rich enough to validate the telemetry files
/// the obs layer emits (run records, trace-event JSON, journal and
/// progress streams). Not a general-purpose parser, but strict where it
/// counts: numbers are doubles validated against the RFC 8259 grammar,
/// strings decode every escape including \uXXXX (surrogate pairs combine
/// and decode to UTF-8; malformed or unpaired escapes are parse errors),
/// and a raw control character inside a string is an error.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                             // arrays
  std::vector<std::pair<std::string, JsonValue>> members;   // objects

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsString() const { return type == Type::kString; }
  bool IsNumber() const { return type == Type::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses a complete JSON document (rejects trailing garbage).
Result<JsonValue> ParseJson(std::string_view text);

/// Reads and parses a JSON file.
Result<JsonValue> ParseJsonFile(const std::string& path);

/// Reads a JSONL file (ledgers, journal and progress streams): one JSON
/// document per nonempty line, each paired with its 1-based line number.
/// Fails on an unreadable file or on the first line that does not parse,
/// naming that line.
Result<std::vector<std::pair<size_t, JsonValue>>> ParseJsonLinesFile(
    const std::string& path);

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// escaped, newline, tab and carriage return are written as `\n`, `\t`
/// and `\r`, and every other byte below 0x20 as `\u00XX`. Bytes from
/// 0x80 up pass through unchanged. The one string escaper of every JSON
/// and JSONL writer, so no rendered string can split a JSONL line.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_JSON_H_
