// Traced-run plumbing: the flight-recorder join (server-side boundaries of
// the TCP workloads, which are not calls the benchmark makes) and the
// in-memory span log with per-layer self time.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "perfbench/bench.h"
#include "src/stats/flight_recorder.h"

namespace perfbench {

std::vector<std::pair<uint64_t, ServerEvents>> JoinRecorder(Nanos from,
                                                             Nanos to) {
  std::string dump;
  bouncer::stats::FlightRecorder::Global().Dump(&dump);
  std::unordered_map<uint64_t, ServerEvents> by_id;
  size_t pos = 0;
  while (pos < dump.size()) {
    size_t end = dump.find('\n', pos);
    if (end == std::string::npos) end = dump.size();
    const std::string line = dump.substr(pos, end - pos);
    pos = end + 1;
    long long ts = 0;
    unsigned long long id = 0;
    char kind[32] = {0};
    unsigned type = 0, tenant = 0, reason = 0, loc = 0;
    long long arg0 = 0, arg1 = 0;
    if (std::sscanf(line.c_str(),
                    "{\"ts\":%lld,\"id\":%llu,\"kind\":\"%31[^\"]\",\"type\":%u,"
                    "\"tenant\":%u,\"reason\":%u,\"loc\":%u,\"arg0\":%lld,"
                    "\"arg1\":%lld",
                    &ts, &id, kind, &type, &tenant, &reason, &loc, &arg0,
                    &arg1) != 9) {
      continue;
    }
    if (ts < from || ts > to) continue;
    ServerEvents& e = by_id[id];
    const auto first = [ts](Nanos& slot) {
      if (slot == 0 || ts < slot) slot = ts;
    };
    if (std::strcmp(kind, "net_parse") == 0) {
      first(e.parse);
    } else if (std::strcmp(kind, "admission") == 0) {
      first(e.admit);  // The broker decides before any shard does.
    } else if (std::strcmp(kind, "dequeue") == 0) {
      if (e.dequeue == 0 || ts < e.dequeue) {
        e.dequeue = ts;
        e.wait = arg0;
      }
    } else if (std::strcmp(kind, "shard_gather") == 0) {
      e.gather_last = std::max<Nanos>(e.gather_last, ts);
    } else if (std::strcmp(kind, "response_write") == 0) {
      first(e.write);
    }
  }
  return {by_id.begin(), by_id.end()};
}

SpanLog::Self& SpanLog::SelfOf(const char* name) {
  for (Self& s : self_) {
    if (s.name == name) return s;
  }
  self_.push_back(Self{name, 0, 0});
  return self_.back();
}

void SpanLog::AddRequest(const std::vector<Span>& spans, bool keep) {
  if (spans.empty()) return;
  ++requests_;
  root_total_ns_ += static_cast<double>(spans[0].end - spans[0].start);
  std::vector<std::pair<Nanos, Nanos>> covered;
  for (const Span& span : spans) {
    if (span.end < span.start) continue;
    // Self time: the span minus the union of its children, clipped to it.
    covered.clear();
    for (const Span& child : spans) {
      if (child.parent == nullptr || std::strcmp(child.parent, span.name) != 0 ||
          child.end < child.start) {
        continue;
      }
      const Nanos lo = std::max(child.start, span.start);
      const Nanos hi = std::min(child.end, span.end);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    Nanos union_ns = 0;
    Nanos cursor = span.start;
    for (const auto& [lo, hi] : covered) {
      const Nanos from = std::max(lo, cursor);
      if (hi > from) union_ns += hi - from;
      cursor = std::max(cursor, hi);
    }
    Self& self = SelfOf(span.name);
    self.total_ns += static_cast<double>(span.end - span.start - union_ns);
    ++self.count;
  }
  if (keep) kept_.insert(kept_.end(), spans.begin(), spans.end());
}

std::vector<std::string> SpanLog::Summary() const {
  std::vector<std::string> lines;
  for (const Self& s : self_) {
    const double share =
        root_total_ns_ > 0 ? s.total_ns / root_total_ns_ : 0;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-26s self %10.2f us/span over %8" PRIu64
                  " spans, %5.1f%% of end-to-end",
                  s.name.c_str(),
                  s.count == 0 ? 0 : s.total_ns / 1e3 /
                                         static_cast<double>(s.count),
                  s.count, 100.0 * share);
    lines.push_back(buf);
  }
  return lines;
}

bool SpanLog::Write(const std::string& spans_path,
                    const std::string& self_path) const {
  std::FILE* f = std::fopen(spans_path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : kept_) {
    std::fprintf(f,
                 "{\"id\":%" PRIu64 ",\"name\":\"%s\",\"start\":%" PRId64
                 ",\"end\":%" PRId64 ",\"parent\":%s%s%s}\n",
                 s.id, s.name, s.start, s.end, s.parent ? "\"" : "",
                 s.parent ? s.parent : "null", s.parent ? "\"" : "");
  }
  bool ok = std::fclose(f) == 0;
  f = std::fopen(self_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"requests\":%zu,\"end_to_end_us\":%.3f,\"layers\":[",
               requests_, root_total_ns_ / 1e3);
  for (size_t i = 0; i < self_.size(); ++i) {
    const Self& s = self_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"spans\":%" PRIu64
                 ",\"self_us\":%.3f,\"share\":%.6f}",
                 i == 0 ? "" : ",", s.name.c_str(), s.count, s.total_ns / 1e3,
                 root_total_ns_ > 0 ? s.total_ns / root_total_ns_ : 0);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 && ok;
}

void FinishSpans(const Args& args, const SpanLog& spans, Report* report) {
  report->notes.push_back("self time by layer (" + Count(spans.requests()) +
                          " traced requests):");
  for (const std::string& line : spans.Summary()) {
    report->notes.push_back("  " + line);
  }
  if (args.out_dir.empty()) return;
  const std::string base = args.out_dir + "/" + args.workload->name +
                           "-seed" + Count(args.seed);
  if (!spans.Write(base + ".spans.jsonl", base + ".selftime.json")) {
    report->notes.push_back("could not write spans under " + args.out_dir);
  } else {
    report->notes.push_back("spans: " + base + ".spans.jsonl, self time: " +
                            base + ".selftime.json");
  }
}

}  // namespace perfbench
