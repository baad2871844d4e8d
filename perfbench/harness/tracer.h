// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call from the harness into a mobisim layer: a name
// such as "core.setup", a start and end on the steady clock, the span that
// was open on the same thread when it began (its parent), and an optional
// tag (the device kind of a simulated point).  Spans are kept in memory and
// written out once, as Chrome trace-event JSON, when the run ends.
//
// A layer's self time is its span's duration minus the part covered by its
// child spans.  Recording is off unless Enable() was called; a Scope on a
// disabled tracer records nothing, so untraced passes run the same code.
#ifndef MOBISIM_PERFBENCH_HARNESS_TRACER_H_
#define MOBISIM_PERFBENCH_HARNESS_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string tag;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int tid = 0;
  };

  // Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string tag = "")
        : tracer_(tracer), id_(tracer.Begin(std::move(name), std::move(tag))) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int Begin(std::string name, std::string tag) {
    if (!enabled_) {
      return -1;
    }
    Span span;
    span.name = std::move(name);
    span.tag = std::move(tag);
    span.parent = open_.empty() ? -1 : open_.back();
    span.tid = ThreadId();
    span.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    const std::int64_t end = NowNs();
    open_.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = end;
  }

  // Number of spans recorded so far; a pass remembers it to aggregate only
  // its own spans.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Self seconds per span name (and per "name.tag" for tagged spans) over
  // spans [first, end).  All of them must be closed.
  std::map<std::string, double> SelfSeconds(std::size_t first, std::size_t end) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (std::size_t i = first; i < end; ++i) {
      if (spans_[i].parent >= 0) {
        child_ns[spans_[i].parent] += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = first; i < end; ++i) {
      const Span& s = spans_[i];
      const double sec = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e9;
      self[s.name] += sec;
      if (!s.tag.empty()) {
        self[s.name + "." + s.tag] += sec;
      }
    }
    return self;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps
  // relative to the first span); opens in Perfetto or chrome://tracing.
  bool WriteChromeJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string cat = s.name.substr(0, s.name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"tag\":\"%s\"}}",
                   i == 0 ? "" : ",", s.name.c_str(), cat.c_str(), s.tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   s.tag.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int ThreadId() {
    static std::atomic<int> next{1};
    thread_local const int id = next++;
    return id;
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  // Open spans of the calling thread, innermost last.
  static thread_local std::vector<int> open_;
};

inline thread_local std::vector<int> Tracer::open_;

}  // namespace perfbench

#endif  // MOBISIM_PERFBENCH_HARNESS_TRACER_H_
