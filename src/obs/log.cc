#include "obs/log.h"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "base/status.h"

namespace qimap {
namespace obs {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kError:
      return "error";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kDebug:
      return "debug";
  }
  return "?";
}

void LogStatusError(StatusCode code, const std::string& message) {
  Log(LogLevel::kDebug, "status %s: %s", StatusCodeName(code),
      message.c_str());
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel CurrentLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) <=
         g_level.load(std::memory_order_relaxed);
}

void Log(LogLevel level, const char* format, ...) {
  if (!LogEnabled(level)) return;
  std::fprintf(stderr, "[qimap:%s] ", LevelName(level));
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

void InstallStatusLogging() {
  SetStatusErrorHook(&LogStatusError);
}

}  // namespace obs
}  // namespace qimap
