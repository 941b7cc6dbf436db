#ifndef QIMAP_TOOLS_ARG_PARSE_H_
#define QIMAP_TOOLS_ARG_PARSE_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace qimap {
namespace tools {

/// Strict `--flag value` parsing shared by qimap_cli, telemetry_check,
/// and bench_report. One dialect for all three tools:
///   * flags start with `--` and accept both `--key value` and
///     `--key=value`;
///   * boolean flags take no value (and `--key=value` is an error);
///   * multi-value flags consume a fixed number of following operands
///     (telemetry_check's `--require FILE COUNTER`); the `=` form is
///     only valid at arity 1;
///   * anything not starting with `--` is a positional, rejected unless
///     the spec allows them;
///   * unknown flags, missing values, and malformed numbers are errors,
///     never silently ignored — a typo in a CI invocation must fail the
///     leg, not skip the check.
/// Errors are reported through an out-parameter (not stderr) so the
/// parser is unit-testable and each tool keeps its own diagnostic
/// prefix.

/// What a tool accepts.
struct ArgSpec {
  std::set<std::string> value_flags;
  std::set<std::string> bool_flags;
  /// Flag name -> number of following operands it consumes. Repeatable;
  /// every occurrence is preserved in order (ParsedArgs::occurrences).
  std::map<std::string, size_t> multi_value_flags;
  bool allow_positionals = false;
};

/// The parse result. `flags` is the last-value-wins view most commands
/// want; `occurrences` preserves order and repetition for tools that
/// walk their flags as a sequence of checks (telemetry_check).
struct ParsedArgs {
  struct Occurrence {
    std::string flag;  ///< without the leading "--"
    std::vector<std::string> values;  ///< empty for boolean flags
  };
  std::vector<Occurrence> occurrences;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positionals;

  const char* Get(const std::string& key,
                  const char* fallback = nullptr) const {
    auto it = flags.find(key);
    return it != flags.end() ? it->second.c_str() : fallback;
  }

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

/// Parses argv[begin..argc) against `spec` into `out`. On failure
/// returns false with a one-line diagnostic (no tool prefix, no
/// trailing newline) in `*error`.
inline bool ParseArgs(int argc, char** argv, int begin, const ArgSpec& spec,
                      ParsedArgs* out, std::string* error) {
  for (int i = begin; i < argc; ++i) {
    const char* raw = argv[i];
    if (std::strncmp(raw, "--", 2) != 0) {
      if (!spec.allow_positionals) {
        *error = std::string("unexpected argument '") + raw +
                 "' (flags start with --)";
        return false;
      }
      out->positionals.push_back(raw);
      continue;
    }
    std::string key = raw + 2;
    std::string inline_value;
    bool has_inline = false;
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      inline_value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_inline = true;
    }
    if (spec.bool_flags.count(key) > 0) {
      if (has_inline) {
        *error = "--" + key + " takes no value";
        return false;
      }
      out->flags[key] = "1";
      out->occurrences.push_back({key, {}});
      continue;
    }
    auto multi = spec.multi_value_flags.find(key);
    if (multi != spec.multi_value_flags.end()) {
      ParsedArgs::Occurrence occ;
      occ.flag = key;
      if (has_inline) {
        if (multi->second != 1) {
          *error = "--" + key + " takes " +
                   std::to_string(multi->second) +
                   " values and does not accept the --flag=value form";
          return false;
        }
        occ.values.push_back(std::move(inline_value));
      } else {
        for (size_t k = 0; k < multi->second; ++k) {
          if (i + 1 >= argc) {
            *error = "--" + key + " requires " +
                     (multi->second == 1
                          ? std::string("a value")
                          : std::to_string(multi->second) + " values");
            return false;
          }
          occ.values.push_back(argv[++i]);
        }
      }
      out->flags[key] = occ.values.back();
      out->occurrences.push_back(std::move(occ));
      continue;
    }
    if (spec.value_flags.count(key) == 0) {
      *error = "unknown flag '--" + key + "'";
      return false;
    }
    std::string value;
    if (has_inline) {
      value = std::move(inline_value);
    } else {
      if (i + 1 >= argc) {
        *error = "--" + key + " requires a value";
        return false;
      }
      value = argv[++i];
    }
    out->flags[key] = value;
    out->occurrences.push_back({key, {std::move(value)}});
  }
  return true;
}

/// Strict non-negative integer parse: garbage must be an error, not a
/// silent 0 (= "limit off" for the budget flags), and so is a value past
/// 2^64 - 1, which strtoull would clamp.
inline bool ParseUint64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-' || *text == '+') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// Strict non-negative double parse (the tolerance flags).
inline bool ParseNonNegativeDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || value < 0.0) return false;
  *out = value;
  return true;
}

}  // namespace tools
}  // namespace qimap

#endif  // QIMAP_TOOLS_ARG_PARSE_H_
