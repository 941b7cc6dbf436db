#ifndef QIMAP_OBS_LOG_H_
#define QIMAP_OBS_LOG_H_

namespace qimap {
namespace obs {

/// Leveled stderr logging. Default level is kWarn so the library stays
/// quiet; `qimap_cli --verbose` raises it to kDebug.
enum class LogLevel : int {
  kError = 0,
  kWarn = 1,
  kInfo = 2,
  kDebug = 3,
};

void SetLogLevel(LogLevel level);
LogLevel CurrentLogLevel();
bool LogEnabled(LogLevel level);

/// Prints `[qimap:<level>] <message>\n` to stderr when `level` is at or
/// below the current level. printf-style.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void Log(LogLevel level, const char* format, ...);

/// Routes every non-OK Status constructed by the library to Log() at
/// kDebug via the base-layer hook (base/status.h), so `--verbose` shows
/// errors where they originate rather than where they surface.
void InstallStatusLogging();

}  // namespace obs
}  // namespace qimap

#endif  // QIMAP_OBS_LOG_H_
