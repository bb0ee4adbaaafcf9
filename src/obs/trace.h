// Scoped-span tracing in *virtual* time (DESIGN.md §13).
//
// A TraceLog records named spans and instants whose timestamps are supplied
// by the caller — for the simulator that is virtual sim time in µs, so the
// log is a pure function of (config, seed) and bit-identical across thread
// counts, exactly like the FNV-1a trace digest.  No clock is ever read
// here; wall-clock profiling lives in obs/profile.h behind its own gate.
//
// Two renderings:
//   * write_chrome_json(): the Chrome trace-event format — load the file at
//     chrome://tracing (or https://ui.perfetto.dev) to see per-node
//     timelines.  Tracks map to `tid`s and are labelled with thread_name
//     metadata events.
//   * write_jsonl(): one JSON object per line, grep/jq-friendly.
//
// Ownership/threading: a TraceLog is single-writer.  The simulator never
// writes one while it runs: `sim::render_spans` builds a fresh log from a
// finished run's recorded trace, so every replication can have its own.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sledzig::obs {

/// One recorded event.  `phase` follows the Chrome trace-event codes:
/// 'X' = complete span (start + duration), 'i' = instant.
struct TraceEvent {
  std::string name;
  std::uint32_t track = 0;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  char phase = 'X';
};

class TraceLog {
 public:
  /// Labels a track (shown as a named row at chrome://tracing).
  void set_track_name(std::uint32_t track, std::string_view name);

  /// Records a complete span over [start_us, end_us] (virtual µs).
  void complete(std::string_view name, std::uint32_t track,
                std::uint64_t start_us, std::uint64_t end_us);

  /// Records a zero-duration instant marker.
  void instant(std::string_view name, std::uint32_t track,
               std::uint64_t ts_us);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Chrome trace-event JSON (an object with a "traceEvents" array).
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;

  /// Line-oriented JSON, one event per line.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<TraceEvent> events_;
  /// (track, name), insertion-ordered; rendered as thread_name metadata.
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
};

}  // namespace sledzig::obs
