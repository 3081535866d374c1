#include "trace.h"

#include <fstream>

namespace perfbench {

uint64_t Tracer::Record(const std::string& name, int64_t start_ns,
                        int64_t end_ns, int64_t request, uint64_t parent,
                        bool replay) {
  if (!enabled_) return 0;
  std::lock_guard lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.replay = replay;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"replay\":" << (s.replay ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(out);
}

size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

}  // namespace perfbench
