// Span recorder for the traced run.
//
// The traced run replays a workload serially and wraps every call into
// a layer in a span {name, start, end, parent, pass}. Spans are kept in
// memory and written out once at exit; a layer's self time is its
// spans' durations minus the parts covered by their direct children.
// Recording is single-threaded by design: the traced replay runs every
// layer on the calling thread, so spans nest properly.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace rtccbench {

/// Seconds on the monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // layer name, a string literal
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int pass = 0;     // traced pass the span belongs to
};

class Tracer {
 public:
  void begin_pass(int pass) { pass_ = pass; }

  int open(const char* name) {
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(), pass_});
    stack_.push_back(idx);
    return idx;
  }

  /// Closes the innermost open span; `rename` relabels it (a push that
  /// turned out to close an epoch is booked as an emit).
  void close(const char* rename = nullptr) {
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    s.end = now_s();
    if (rename != nullptr) s.name = rename;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// One line per span of `pass`: pass, index, parent, name, start, end.
  bool write(const std::string& path, int pass) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "pass\tid\tparent\tname\tstart_s\tend_s\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.pass != pass) continue;
      std::fprintf(f, "%d\t%zu\t%d\t%s\t%.9f\t%.9f\n", s.pass, i, s.parent,
                   s.name, s.start, s.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int pass_ = 0;
};

/// RAII span over one layer call.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
    tracer_.open(name);
  }
  ~Scope() { tracer_.close(rename_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void rename(const char* name) { rename_ = name; }

 private:
  Tracer& tracer_;
  const char* rename_ = nullptr;
};

/// Self time per layer name over the spans of one pass: each span's
/// duration minus the durations of its direct children (children of
/// one parent never overlap, since recording is single-threaded).
inline std::map<std::string, double> self_times(const std::vector<Span>& spans,
                                                int pass) {
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pass != pass) continue;
    const double dur = spans[i].end - spans[i].start;
    self[i] += dur;
    if (spans[i].parent >= 0) self[static_cast<std::size_t>(spans[i].parent)] -= dur;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].pass == pass) out[spans[i].name] += self[i];
  return out;
}

}  // namespace rtccbench
