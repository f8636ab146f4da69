#include "trace.h"

#include <fstream>

namespace perfbench {

int64_t Tracer::begin(const char* name, Clock::time_point start, int64_t parent,
                      int64_t request) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.start_ns = ns(start);
  s.end_ns = s.start_ns;
  s.id = static_cast<int64_t>(spans_.size());
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(int64_t id, Clock::time_point end) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = ns(end);
}

int64_t Tracer::add(const char* name, Clock::time_point start, Clock::time_point end,
                    int64_t parent, int64_t request) {
  const int64_t id = begin(name, start, parent, request);
  this->end(id, end);
  return id;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
      << "\"tid\": 1, \"ts\": " << s.start_ns / 1000 << ", \"dur\": " << s.dur_us()
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"request\": " << s.request << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

double ScopedSpan::close() {
  if (!closed_) {
    closed_ = true;
    end_ = Tracer::Clock::now();
    tracer_.end(id_, end_);
  }
  return seconds();
}

double ScopedSpan::seconds() const {
  const auto end = closed_ ? end_ : Tracer::Clock::now();
  return std::chrono::duration<double>(end - start_).count();
}

}  // namespace perfbench
