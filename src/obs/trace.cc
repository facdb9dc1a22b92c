#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/csv.h"
#include "src/common/logging.h"

namespace cedar {
namespace {

std::atomic<TraceCollector*> g_active_collector{nullptr};

// Shortest round-trippable decimal for a double (printf %.17g is exact but
// noisy; %.12g keeps sim timestamps readable and is far below the engines'
// time resolution).
std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

void WriteArgsJson(std::ostream& out, const std::vector<TraceArg>& args) {
  out << "{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << "\"" << JsonEscape(args[i].key) << "\":";
    if (args[i].numeric) {
      out << args[i].value;
    } else {
      out << "\"" << JsonEscape(args[i].value) << "\"";
    }
  }
  out << "}";
}

}  // namespace

TraceArg TraceArg::Num(std::string key, double value) {
  return {std::move(key), FormatNumber(value), true};
}

TraceArg TraceArg::Str(std::string key, std::string value) {
  return {std::move(key), std::move(value), false};
}

void TraceCollector::EmitBatch(std::vector<TraceEvent> events) {
  if (events.empty()) {
    return;
  }
  MutexLock lock(mutex_);
  events_.insert(events_.end(), std::make_move_iterator(events.begin()),
                 std::make_move_iterator(events.end()));
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::vector<TraceEvent> snapshot;
  {
    MutexLock lock(mutex_);
    snapshot = events_;
  }
  std::stable_sort(snapshot.begin(), snapshot.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.track != b.track) {
                       return a.track < b.track;
                     }
                     return a.ts < b.ts;
                   });
  return snapshot;
}

size_t TraceCollector::size() const {
  MutexLock lock(mutex_);
  return events_.size();
}

void TraceCollector::WriteChromeJson(std::ostream& out) const {
  std::vector<TraceEvent> events = Snapshot();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (i > 0) {
      out << ",";
    }
    out << "\n{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
        << JsonEscape(event.category) << "\",\"ph\":\"" << event.phase << "\",\"ts\":"
        << FormatNumber(event.ts);
    if (event.phase == 'X') {
      out << ",\"dur\":" << FormatNumber(event.dur);
    }
    if (event.phase == 'i') {
      // Instant scope: thread-scoped so the tick renders on its track.
      out << ",\"s\":\"t\"";
    }
    out << ",\"pid\":1,\"tid\":" << event.track;
    if (!event.args.empty()) {
      out << ",\"args\":";
      WriteArgsJson(out, event.args);
    }
    out << "}";
  }
  out << "\n]}\n";
}

void TraceCollector::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  CEDAR_CHECK(out.good()) << "cannot open trace output file " << path;
  WriteChromeJson(out);
  CEDAR_CHECK(out.good()) << "failed writing trace to " << path;
}

void TraceCollector::WriteCsv(const std::string& path) const {
  std::vector<TraceEvent> events = Snapshot();
  CsvWriter writer(path);
  writer.Header({"track", "ts", "dur", "phase", "category", "name", "args"});
  for (const TraceEvent& event : events) {
    std::ostringstream args;
    for (size_t i = 0; i < event.args.size(); ++i) {
      if (i > 0) {
        args << ";";
      }
      args << event.args[i].key << "=" << event.args[i].value;
    }
    writer.Row({std::to_string(event.track), FormatNumber(event.ts),
                FormatNumber(event.dur), std::string(1, event.phase), event.category,
                event.name, args.str()});
  }
}

TraceCollector* ActiveTraceCollector() {
  return g_active_collector.load(std::memory_order_relaxed);
}

void SetActiveTraceCollector(TraceCollector* collector) {
  g_active_collector.store(collector, std::memory_order_relaxed);
}

std::string JsonEscape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\t':
        escaped += "\\t";
        break;
      case '\r':
        escaped += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

}  // namespace cedar
