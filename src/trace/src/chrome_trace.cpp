#include "dedukt/trace/chrome_trace.hpp"

#include <sstream>

#include "dedukt/trace/recorder.hpp"

namespace dedukt::trace {

namespace {

constexpr int kRankPid = 0;
constexpr int kDevicePid = 1;

// tid 0 is the main recorder (rank -1); simulated rank r maps to tid r+1.
int tid_for(int rank) { return rank + 1; }

std::string track_label(Track track, int rank) {
  std::ostringstream name;
  if (rank == -1) {
    name << (track == Track::kDevice ? "main gpu" : "main");
  } else {
    name << (track == Track::kDevice ? "gpu " : "rank ") << rank;
  }
  return name.str();
}

void append_metadata(std::ostringstream& out, const char* name, int pid,
                     int tid, const std::string& value, bool& first) {
  if (!first) out << ",\n";
  first = false;
  out << "  {\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"name\":\"" << name << "\",\"args\":{\"name\":"
      << json_quote(value) << "}}";
}

void append_event(std::ostringstream& out, const SpanRecord& span, int pid,
                  int tid, Clock clock, bool& first) {
  const double start =
      clock == Clock::kModeled ? span.modeled_start : span.wall_start;
  const double dur =
      clock == Clock::kModeled ? span.modeled_seconds : span.wall_seconds;
  if (!first) out << ",\n";
  first = false;
  out << "  {\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"ts\":" << json_number(start * 1e6)
      << ",\"dur\":" << json_number(dur * 1e6)
      << ",\"cat\":" << json_quote(span.category)
      << ",\"name\":" << json_quote(span.name);
  out << ",\"args\":{";
  bool first_arg = true;
  for (const SpanArg& arg : span.args) {
    if (!first_arg) out << ",";
    first_arg = false;
    out << json_quote(arg.key) << ":" << arg.json;
  }
  if (!first_arg) out << ",";
  out << "\"modeled_seconds\":" << json_number(span.modeled_seconds);
  if (span.modeled_volume_seconds != 0.0) {
    out << ",\"modeled_volume_seconds\":"
        << json_number(span.modeled_volume_seconds);
  }
  out << "}}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<RankSpans>& ranks,
                              Clock clock) {
  std::ostringstream out;
  out << "{\n\"traceEvents\":[\n";
  bool first = true;

  // Track-naming metadata first: both processes, then one thread name per
  // rank per track that actually has spans on it.
  append_metadata(out, "process_name", kRankPid, 0, "ranks", first);
  append_metadata(out, "process_name", kDevicePid, 0, "devices", first);
  for (const RankSpans& rs : ranks) {
    bool has_rank = false;
    bool has_device = false;
    for (const SpanRecord& span : rs.spans) {
      (span.track == Track::kDevice ? has_device : has_rank) = true;
    }
    if (has_rank) {
      append_metadata(out, "thread_name", kRankPid, tid_for(rs.rank),
                      track_label(Track::kRank, rs.rank), first);
    }
    if (has_device) {
      append_metadata(out, "thread_name", kDevicePid, tid_for(rs.rank),
                      track_label(Track::kDevice, rs.rank), first);
    }
  }

  for (const RankSpans& rs : ranks) {
    const int tid = tid_for(rs.rank);
    for (const SpanRecord& span : rs.spans) {
      const int pid = span.track == Track::kDevice ? kDevicePid : kRankPid;
      append_event(out, span, pid, tid, clock, first);
    }
  }

  out << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"clock\":"
      << json_quote(clock == Clock::kModeled ? "modeled" : "wall") << "}\n}\n";
  return out.str();
}

}  // namespace dedukt::trace
