// Lightweight invariant checking for mobisim.
//
// MOBISIM_CHECK is always on (simulation correctness beats nanoseconds here);
// MOBISIM_DCHECK compiles out in NDEBUG builds.  Failures throw SimError with
// the condition and location: a violated invariant means every number the
// affected simulation would print is garbage, but it must not take down an
// entire multi-hour sweep.  Callers that genuinely cannot continue — test
// binaries and CLI main()s — catch SimError at the top level and abort/exit
// there instead.
#ifndef MOBISIM_SRC_UTIL_CHECK_H_
#define MOBISIM_SRC_UTIL_CHECK_H_

#include <stdexcept>
#include <string>

namespace mobisim {

// Thrown when a MOBISIM_CHECK invariant fails inside library code.  Carries
// the failed condition text and source location so sweep runners can record
// *which* invariant a failed point tripped.
class SimError : public std::runtime_error {
 public:
  // `detail`, when non-empty, names the offending values.
  SimError(const char* cond, const char* file, int line, const std::string& detail = "")
      : std::runtime_error(std::string("MOBISIM_CHECK failed: ") + cond +
                           (detail.empty() ? "" : " (" + detail + ")") + " at " + file + ":" +
                           std::to_string(line)),
        condition_(cond),
        file_(file),
        line_(line) {}

  const char* condition() const { return condition_; }
  const char* file() const { return file_; }
  int line() const { return line_; }

 private:
  const char* condition_;
  const char* file_;
  int line_;
};

[[noreturn]] inline void CheckFailed(const char* cond, const char* file, int line,
                                     const std::string& detail = "") {
  throw SimError(cond, file, line, detail);
}

}  // namespace mobisim

#define MOBISIM_CHECK(cond)                                 \
  do {                                                      \
    if (!(cond)) {                                          \
      ::mobisim::CheckFailed(#cond, __FILE__, __LINE__);    \
    }                                                       \
  } while (0)

// MOBISIM_CHECK whose message also carries `detail` (a std::string
// expression, evaluated only on failure).
#define MOBISIM_CHECK_MSG(cond, detail)                             \
  do {                                                              \
    if (!(cond)) {                                                  \
      ::mobisim::CheckFailed(#cond, __FILE__, __LINE__, (detail));  \
    }                                                               \
  } while (0)

#ifdef NDEBUG
#define MOBISIM_DCHECK(cond) \
  do {                       \
  } while (0)
#else
#define MOBISIM_DCHECK(cond) MOBISIM_CHECK(cond)
#endif

#endif  // MOBISIM_SRC_UTIL_CHECK_H_
