// Minimal leveled logging. Defaults to warnings-and-above so tests and
// benches stay quiet; examples turn on info logging to narrate what happens.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace splitft {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Process-wide minimum level; messages below it are discarded.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace log_internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when the level is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace log_internal

// deeplint: allow-file(status-discard) the (void) below casts the ternary's
// LogMessage temporary, not a Status-returning call, and a same-line
// suppression cannot live inside a line-continued macro.
#define SPLITFT_LOG(level)                                             \
  (static_cast<int>(level) < static_cast<int>(::splitft::GetLogLevel())) \
      ? (void)0                                                        \
      : (void)::splitft::log_internal::LogMessage(level, __FILE__,     \
                                                  __LINE__)            \
            .stream()

#define LOG_DEBUG                                                       \
  if (static_cast<int>(::splitft::LogLevel::kDebug) >=                  \
      static_cast<int>(::splitft::GetLogLevel()))                       \
  ::splitft::log_internal::LogMessage(::splitft::LogLevel::kDebug,      \
                                      __FILE__, __LINE__)               \
      .stream()
#define LOG_INFO                                                        \
  if (static_cast<int>(::splitft::LogLevel::kInfo) >=                   \
      static_cast<int>(::splitft::GetLogLevel()))                       \
  ::splitft::log_internal::LogMessage(::splitft::LogLevel::kInfo,       \
                                      __FILE__, __LINE__)               \
      .stream()
#define LOG_WARNING                                                     \
  if (static_cast<int>(::splitft::LogLevel::kWarning) >=                \
      static_cast<int>(::splitft::GetLogLevel()))                       \
  ::splitft::log_internal::LogMessage(::splitft::LogLevel::kWarning,    \
                                      __FILE__, __LINE__)               \
      .stream()
#define LOG_ERROR                                                       \
  ::splitft::log_internal::LogMessage(::splitft::LogLevel::kError,      \
                                      __FILE__, __LINE__)               \
      .stream()

}  // namespace splitft

#endif  // SRC_COMMON_LOGGING_H_
