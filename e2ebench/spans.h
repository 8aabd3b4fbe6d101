// In-memory spans for the traced mode: name, start, end, the span that
// caused it and the request it belongs to. Written out once, when the
// run ends.

#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   // Index of the causing span; -1 for a root.
  int request = -1;  // Request id; -1 for spans outside any request.
};

class SpanRecorder {
 public:
  // Opens a span now and returns its index.
  int Open(const char* name, int parent, int request);
  void Close(int index);
  double DurationMicros(int index) const {
    return static_cast<double>(spans_[index].end_ns - spans_[index].start_ns) /
           1e3;
  }

  // Self time of every span, in microseconds, grouped by name: the
  // span's duration minus the part of it that its children cover.
  std::map<std::string, std::vector<double>> SelfMicrosByName() const;

  // One JSON object per line. Returns false if the file cannot be written.
  bool Write(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

// Opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int parent,
             int request)
      : recorder_(recorder), index_(recorder->Open(name, parent, request)) {}
  ~ScopedSpan() { recorder_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  SpanRecorder* const recorder_;
  const int index_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
