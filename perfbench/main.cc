// perfbench entry point: parses the run's arguments, sets the stack up,
// checks the input fingerprints, runs the workload, tears the stack down,
// times kSetups - 1 more set-ups (setup_s is the median of all), and
// prints a human-readable report followed by the one-line JSON result.
//
//   perfbench --workload paper_overload --seed 1 --seconds 10 --trace 0
//             [--out-dir DIR]

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "perfbench/bench.h"
#include "src/stats/flight_recorder.h"

namespace perfbench {
namespace {

// The deployed graph: generator defaults of examples/graph_service. A
// change under src/ that alters the graph fails the run.
constexpr uint64_t kPinnedEdges = 799'002;
constexpr uint64_t kPinnedGraphHash = 0xfc5229caede8ea3bull;

// Known-answer fingerprints of each workload's generator: seed 1, stream
// 0, the first kFingerprintRequests requests at kFingerprintRate.
constexpr size_t kFingerprintRequests = 4096;
constexpr double kFingerprintRate = 1000;
struct PinnedStream {
  const char* workload;
  uint64_t fingerprint;
};
constexpr PinnedStream kPinnedStreams[] = {
    {"paper_overload", 0x8289480080b917b7ull},
    {"lookup_open", 0xd9f516d9793b7a4bull},
};

/// Runs whose generator fell this far behind its schedule are invalid.
constexpr Nanos kMaxSendLagP99 = 10 * kMillisecond;
constexpr double kMinOfferedShare = 0.95;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_overload|lookup_open --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               message);
  return 2;
}

/// Traced runs: recorder events kept per thread, enough for the whole
/// traced window. A net loop records 3 events for each sampled request it
/// parses and parses half of them; a broker worker records about 5 (its
/// dequeue plus the shard round it runs inline) for each request it runs,
/// and runs about a quarter. 4 per sampled request leaves every thread
/// over twice its share; the recorder join checks the coverage.
size_t TracedRingCapacity(const Args& args) {
  const double sampled = args.workload->rate_qps *
                         bouncer::ToSeconds(TracedWindow(args)) /
                         kTraceSamplePeriod;
  return std::max<size_t>(bouncer::stats::FlightRecorder::Options{}
                              .ring_capacity,
                          static_cast<size_t>(4 * sampled));
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = FindWorkload(value);
      if (args->workload == nullptr) {
        *error = std::string("unknown workload ") + value;
        return false;
      }
      continue;
    }
    if (flag == "--out-dir") {
      args->out_dir = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end == value || *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload == nullptr || !have_seed || args->seconds < 1) {
    *error = "--workload, --seed and --seconds (>= 1) are required";
    return false;
  }
  return true;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void CheckFingerprints(const Args& args, const Deployment& d, Report* report) {
  const GraphFingerprint g = FingerprintGraph(d.graph);
  report->notes.push_back("graph: " + Count(g.vertices) + " vertices, " +
                          Count(g.edges) + " edges, degree hash " +
                          Hex(g.hash));
  if (g.vertices != kGraphVertices || g.edges != kPinnedEdges ||
      g.hash != kPinnedGraphHash) {
    report->Error("graph fingerprint differs from the pinned one (" +
                  Count(kGraphVertices) + " vertices, " +
                  Count(kPinnedEdges) + " edges, " + Hex(kPinnedGraphHash) +
                  ")");
  }
  const Workload& w = *args.workload;
  const size_t streams = w.tcp ? kConnections : 1;
  const double per_stream = w.rate_qps / static_cast<double>(streams);
  std::string line = "request streams (seed " + Count(args.seed) + "):";
  for (size_t s = 0; s < streams; ++s) {
    line += ' ';
    line += Hex(FingerprintStream(w, d.graph, args.seed, s, per_stream,
                                  kFingerprintRequests));
  }
  report->notes.push_back(line);
  const uint64_t known =
      FingerprintStream(w, d.graph, 1, 0, kFingerprintRate,
                        kFingerprintRequests);
  for (const PinnedStream& pinned : kPinnedStreams) {
    if (std::strcmp(pinned.workload, w.name) == 0 &&
        pinned.fingerprint != known) {
      report->Error("generator known-answer fingerprint " + Hex(known) +
                    " != pinned " + Hex(pinned.fingerprint));
    }
  }
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-6s  (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

std::string JsonResult(const Report& report, bool trace) {
  std::string out = "{\"correct\":";
  out += report.errors.empty() ? "true" : "false";
  out += ",\"attempted\":" + Count(report.attempted);
  out += ",\"failed\":" + Count(report.failed);
  out += ",\"metrics\":{";
  const std::vector<Metric>& metrics =
      trace ? report.per_layer : report.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ',';
    out += '"';
    out += m.name;
    out += "\":{\"value\":";
    out += value;
    out += ",\"unit\":\"";
    out += m.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

int Run(int argc, char** argv) {
  const Nanos process_start = Now();
  // The server's writev and this client's sends must not kill the process
  // when a peer resets; transport errors are counted as failed operations.
  std::signal(SIGPIPE, SIG_IGN);

  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  const Workload& w = *args.workload;

  // The flight recorder at its deployed default: 1-in-64 sampling.
  bouncer::stats::FlightRecorder::Options trace_options;
  trace_options.sampling_period = kTraceSamplePeriod;
  if (args.trace) trace_options.ring_capacity = TracedRingCapacity(args);
  bouncer::stats::FlightRecorder::Global().Configure(trace_options);
  bouncer::stats::FlightRecorder::Global().SetEnabled(true);

  std::vector<SetupTimes> setups(1);
  std::unique_ptr<Deployment> deployment =
      Deployment::Create(w, process_start, &setups[0], &error);
  if (!deployment) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  Report report;
  CheckFingerprints(args, *deployment, &report);
  const std::string host = HostRecord(args, *deployment);
  const WindowResult window = w.tcp ? RunTcp(args, *deployment, &report)
                                    : RunInproc(args, *deployment, &report);
  deployment.reset();
  // The process's peak so far: one set-up, the run, the teardown. The
  // timing set-ups below would raise it by tens of MB of heap that
  // repeated set-ups leave behind, which a deployment never needs.
  const double peak_rss_mb = PeakRssMb();

  // The other set-ups, each torn down as soon as it is ready.
  for (int k = 1; k < kSetups; ++k) {
    SetupTimes times;
    if (!Deployment::Create(w, Now(), &times, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(times);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) values.push_back(s.*field);
    return Median(values);
  };
  SetupTimes setup;
  setup.graph_build_s = median_of(&SetupTimes::graph_build_s);
  setup.server_start_s = median_of(&SetupTimes::server_start_s);
  setup.net_start_s = median_of(&SetupTimes::net_start_s);
  setup.connect_s = median_of(&SetupTimes::connect_s);
  setup.total_s = median_of(&SetupTimes::total_s);
  if (args.trace) {
    AddSetupLayers(setup, &report);
  } else {
    AddEndToEnd(window, setup.total_s, peak_rss_mb, &report);
  }

  const double lag_p99 = window.tally.send_lag.Quantile(0.99);
  if (lag_p99 > static_cast<double>(kMaxSendLagP99)) {
    report.invalid.push_back("generator send lag p99 " + Num(lag_p99 / 1e6) +
                             " ms");
  }
  if (window.offered_qps < kMinOfferedShare * w.rate_qps) {
    report.invalid.push_back("offered " + Num(window.offered_qps) +
                             " QPS of " + Num(w.rate_qps));
  }

  std::printf("perfbench workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              w.name, args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("host %s\n", host.c_str());
  std::printf("setup: %.4f s median of %d (graph %.4f s, cluster %.4f s, "
              "net %.4f s, connect %.4f s)\n",
              setup.total_s, kSetups, setup.graph_build_s,
              setup.server_start_s, setup.net_start_s, setup.connect_s);
  if (!report.end_to_end.empty()) {
    PrintMetrics("end-to-end:", report.end_to_end);
  }
  if (!report.per_layer.empty()) PrintMetrics("per-layer:", report.per_layer);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("checks: %s (attempted %" PRIu64 ", failed %" PRIu64 ")\n",
              report.errors.empty() ? "all passed" : "FAILED",
              report.attempted, report.failed);
  const std::string json = JsonResult(report, args.trace);
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + w.name + "-seed" +
                             Count(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".result.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"host\":%s,\"result\":%s}\n", host.c_str(),
                   json.c_str());
      std::fclose(f);
    }
  }
  if (!report.invalid.empty()) {
    for (const std::string& why : report.invalid) {
      std::fprintf(stderr, "perfbench: run invalid: %s\n", why.c_str());
    }
    std::fflush(stdout);
    return 3;
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
