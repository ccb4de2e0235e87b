#ifndef DPGRID_OBS_LOG_H_
#define DPGRID_OBS_LOG_H_

#include <initializer_list>
#include <string>

namespace dpgrid {
namespace obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Parses "debug"/"info"/"warn"/"error"/"off" (case-insensitive);
/// nullptr, empty, or unrecognized values return `fallback` — a log knob
/// should degrade, not abort the server.
LogLevel ParseLogLevel(const char* value, LogLevel fallback);

/// The process threshold: DPGRID_LOG_LEVEL parsed once on first use
/// (default info). Records below it are dropped.
LogLevel LogThreshold();

inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(LogThreshold());
}

struct LogField {
  const char* key;
  std::string value;
};

/// Emits one structured record:
///   2026-08-08T12:00:00.123Z level=info event=startup port=7171 ...
/// Values containing spaces or quotes are double-quoted. info/debug go
/// to stdout (flushed), warn/error to stderr, matching how dpgrid_server
/// has always split its prints.
void Log(LogLevel level, const char* event,
         std::initializer_list<LogField> fields = {});

}  // namespace obs
}  // namespace dpgrid

#endif  // DPGRID_OBS_LOG_H_
