#include "obs/trace.h"

#include <ostream>
#include <sstream>

#include "obs/json_string.h"

namespace sledzig::obs {

namespace {

std::string quoted(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

}  // namespace

void TraceLog::set_track_name(std::uint32_t track, std::string_view name) {
  for (auto& [t, n] : track_names_) {
    if (t == track) {
      n = std::string(name);
      return;
    }
  }
  track_names_.emplace_back(track, std::string(name));
}

void TraceLog::complete(std::string_view name, std::uint32_t track,
                        std::uint64_t start_us, std::uint64_t end_us) {
  TraceEvent ev;
  ev.name = std::string(name);
  ev.track = track;
  ev.ts_us = start_us;
  ev.dur_us = end_us >= start_us ? end_us - start_us : 0;
  ev.phase = 'X';
  events_.push_back(std::move(ev));
}

void TraceLog::instant(std::string_view name, std::uint32_t track,
                       std::uint64_t ts_us) {
  TraceEvent ev;
  ev.name = std::string(name);
  ev.track = track;
  ev.ts_us = ts_us;
  ev.phase = 'i';
  events_.push_back(std::move(ev));
}

void TraceLog::write_chrome_json(std::ostream& out) const {
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const auto& [track, name] : track_names_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": "
        << track << ", \"args\": {\"name\": " << quoted(name) << "}}";
  }
  for (const TraceEvent& ev : events_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "  {\"name\": " << quoted(ev.name) << ", \"ph\": \"" << ev.phase
        << "\", \"pid\": 0, \"tid\": " << ev.track << ", \"ts\": "
        << ev.ts_us;
    if (ev.phase == 'X') out << ", \"dur\": " << ev.dur_us;
    if (ev.phase == 'i') out << ", \"s\": \"t\"";
    out << "}";
  }
  out << (first ? "]}\n" : "\n]}\n");
}

std::string TraceLog::chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

void TraceLog::write_jsonl(std::ostream& out) const {
  for (const TraceEvent& ev : events_) {
    out << "{\"name\": " << quoted(ev.name) << ", \"track\": " << ev.track
        << ", \"ts_us\": " << ev.ts_us;
    if (ev.phase == 'X') out << ", \"dur_us\": " << ev.dur_us;
    out << ", \"kind\": \"" << (ev.phase == 'X' ? "span" : "instant")
        << "\"}\n";
  }
}

}  // namespace sledzig::obs
