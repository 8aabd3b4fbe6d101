#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace e2ebench {

namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int SpanRecorder::Open(const char* name, int parent, int request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNanos();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::Close(int index) { spans_[index].end_ns = NowNanos(); }

std::map<std::string, std::vector<double>> SpanRecorder::SelfMicrosByName()
    const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, std::vector<double>> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children's intervals, clipped to the span.
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [start, end] : intervals) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, span.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    self[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e3);
  }
  return self;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace e2ebench
