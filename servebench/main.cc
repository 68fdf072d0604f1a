// servebench — the serving benchmark: an in-process xcq TcpServer on
// loopback, driven by a single-threaded load generator that times every
// request from the client side and checks every answer against the
// uncompressed-tree oracle. See README.md for the workloads, metrics and
// findings.
//
//   servebench --workload <hot_doc|fleet_open|spill_churn> --seed <n>
//              --seconds <s> --trace <0|1>
//
// Prints a table of every metric, then one JSON line: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any request failed or disagreed with the oracle.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "layers.h"
#include "loadgen.h"
#include "workload.h"
#include "xcq/server/tcp_server.h"

namespace servebench {
namespace {

constexpr size_t kWorkerThreads = 2;
constexpr size_t kGeneratorThreads = 1;
// Set-up is repeated this often per untraced run; setup_s is the median.
constexpr int kSetups = 5;
// Warm-up passes over a document's queries before giving up on reaching
// a pass without splits.
constexpr int kMaxWarmPasses = 8;
// An open-loop run whose generator sent its requests later than this
// (p99) measured the generator, not the server, and fails. A generator
// that cannot keep up falls further behind with every send; VM stalls
// of 15-40 ms, which hold up the server as much, lift the p99 to 6-14 ms.
constexpr double kMaxLateP99Ms = 25.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "<hot_doc|fleet_open|spill_churn> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.trace < 0 || args.seconds <= 0.0) {
    Usage("--workload, --seconds and --trace are required");
  }
  return args;
}

size_t OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return static_cast<size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(2);
}

std::unique_ptr<xcq::server::TcpServer> StartServer(const WorkloadSpec& spec,
                                                    const std::string& data_dir) {
  xcq::server::ServerOptions options;
  options.port = 0;
  options.worker_threads = kWorkerThreads;
  options.capacity_bytes = spec.capacity_bytes;
  options.data_dir = data_dir;
  auto server = std::make_unique<xcq::server::TcpServer>(options);
  const xcq::Status started = server->Start();
  if (!started.ok()) Fail("server start: " + started.ToString());
  if (spec.durable && !server->store().durable()) {
    Fail("data dir unusable: " + server->store().durability_status().ToString());
  }
  return server;
}

// LOADs every document over the socket and warms each one to its split
// fixpoint (a pass over its queries that splits nothing), checking every
// answer. Documents are warmed right after their LOAD, so under a
// capacity each has been compressed and spilled before a later LOAD can
// evict it.
void SetUp(const Workload& workload, uint16_t port) {
  BlockingClient client(port);
  for (size_t d = 0; d < workload.docs.size(); ++d) {
    const Document& doc = workload.docs[d];
    Request load;
    load.kind = Request::Kind::kLoad;
    load.doc = static_cast<int>(d);
    std::string error = CheckReply(
        workload, load, 0, 0,
        client.Call("LOAD " + doc.name + " " + doc.variants[0].xml_path + "\n"));
    if (!error.empty()) Fail("set-up LOAD " + doc.name + ": " + error);
    for (int pass = 0; pass < kMaxWarmPasses; ++pass) {
      uint64_t splits = 0;
      for (size_t q = 0; q < doc.queries.size(); ++q) {
        const Request query =
            RequestStream::MakeQuery(workload, load.doc, static_cast<int>(q));
        const std::vector<std::string> reply = client.Call(query.wire);
        error = CheckReply(workload, query, 0, 0, reply);
        if (!error.empty()) Fail("set-up " + error);
        uint64_t s = 0;
        Field(reply.front(), "splits=", &s);
        splits += s;
      }
      if (splits == 0) break;
    }
  }
}

double StatsMemoryMb(uint16_t port) {
  BlockingClient client(port);
  const std::vector<std::string> reply = client.Call("STATS\n");
  uint64_t total = 0;
  for (size_t i = 1; i < reply.size(); ++i) {
    uint64_t bytes = 0;
    if (Field(reply[i], "bytes=", &bytes)) total += bytes;
  }
  return static_cast<double>(total) / (1024.0 * 1024.0);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!FindSpec(args.workload, &spec)) Usage("unknown workload");
  const size_t cpus = OnlineCpus();
  if (kConnections > cpus || kGeneratorThreads > cpus) {
    Fail("refusing to run: " + std::to_string(kConnections) +
         " connections and " + std::to_string(kGeneratorThreads) +
         " generator thread(s) on " + std::to_string(cpus) + " CPUs");
  }

  namespace fs = std::filesystem;
  // Inputs, spills and data dirs live under the build directory of the
  // checkout the benchmark runs in, and are removed at the end.
  const fs::path workdir = fs::absolute(
      fs::path(".bench_build") /
      ("servebench-" + args.workload + "-" + std::to_string(getpid())));
  fs::remove_all(workdir);
  fs::create_directories(workdir);

  int64_t t = NowNs();
  const Workload workload = MakeWorkload(spec, args.seed, workdir.string());
  std::fprintf(stderr, "servebench: %s inputs and oracle in %.2f s\n",
               spec.name.c_str(), static_cast<double>(NowNs() - t) / 1e9);

  // Set-up, repeated on fresh servers; the last one serves the run.
  const int setups = args.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<xcq::server::TcpServer> server;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    const std::string data_dir =
        spec.durable ? (workdir / ("data-" + std::to_string(i))).string() : "";
    server = StartServer(spec, data_dir);
    t = NowNs();
    SetUp(workload, server->port());
    setup_s.push_back(static_cast<double>(NowNs() - t) / 1e9);
  }

  RequestStream stream(&workload, args.seed);
  LoadOptions options;
  options.seconds = args.seconds;
  options.seed = args.seed;
  options.resident_bytes = [store = &server->store()] {
    return static_cast<double>(store->total_bytes());
  };
  LoadTrace trace;
  Counters before;
  if (args.trace) {
    xcq::server::QueryService* service = &server->service();
    xcq::server::DocumentStore* store = &server->store();
    options.sampler = [service, store, &trace](double t_s) {
      trace.queue.Sample(t_s, static_cast<double>(service->queue_depth()));
      trace.inflight.Sample(t_s, static_cast<double>(service->jobs_inflight()));
      trace.resident_bytes.Sample(t_s,
                                  static_cast<double>(store->total_bytes()));
    };
    before = SnapshotCounters(server.get());
  }
  const LoadResult load = RunLoad(workload, server->port(), &stream, options);
  if (args.trace) AddDeltas(before, SnapshotCounters(server.get()), &trace);
  const double memory_mb = load.resident_mean_bytes / (1024.0 * 1024.0);
  const double stats_memory_mb = StatsMemoryMb(server->port());

  const Summary query = Summarize(load.query_ms, 99.0);
  const Summary batch = Summarize(load.batch_ms, 99.0);
  const Summary reload = Summarize(load.load_ms, 50.0);
  const Summary late = Summarize(load.late_ms, 99.0);
  const double attempted = static_cast<double>(load.attempted);
  const double throughput = static_cast<double>(load.ok_in_window) / load.seconds;
  const double within_slo = static_cast<double>(load.within_slo) / attempted;
  const double error_frac = static_cast<double>(load.failed) / attempted;
  const double setup_median = Summarize(setup_s, 50.0).p50;

  std::printf("workload %s  seed %llu  %s loop  %.0f s  attempted %llu  "
              "failed %llu  mismatches %llu\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              spec.loop == Loop::kOpen ? "open" : "closed", load.seconds,
              static_cast<unsigned long long>(load.attempted),
              static_cast<unsigned long long>(load.failed),
              static_cast<unsigned long long>(load.mismatches));
  auto row = [](const char* name, const char* unit, double value,
                const std::string& note) {
    std::printf("  %-22s %12.4f %-6s %s\n", name, value, unit, note.c_str());
  };
  auto tail_note = [](const Summary& s) {
    return "p" + std::to_string(s.tail_percentile).substr(0, 4) + " of n=" +
           std::to_string(s.count);
  };
  row("setup_s", "s", setup_median,
      "median of " + std::to_string(setup_s.size()) + " set-ups");
  row("throughput_rps", "req/s", throughput,
      spec.loop == Loop::kOpen
          ? "offered " + std::to_string(static_cast<int>(spec.offered_rps))
          : "closed loop, " + std::to_string(kConnections) + " conns");
  row("query_p50_ms", "ms", query.p50, "n=" + std::to_string(query.count));
  row("query_p99_ms", "ms", query.tail, tail_note(query));
  if (batch.count > 0) {
    row("batch_p50_ms", "ms", batch.p50, "n=" + std::to_string(batch.count));
    row("batch_p99_ms", "ms", batch.tail, tail_note(batch));
  }
  if (reload.count > 0) {
    row("load_p50_ms", "ms", reload.p50,
        "n=" + std::to_string(reload.count));
  }
  row("within_slo_frac", "1", within_slo,
      "limit " + std::to_string(static_cast<int>(spec.slo_ms)) + " ms");
  row("error_frac", "1", error_frac, "");
  row("memory_mb", "MB", memory_mb, "mean resident over the run");
  row("stats_memory_mb", "MB", stats_memory_mb, "STATS bytes= sum at the end");
  if (late.count > 0) {
    row("generator_late_p99_ms", "ms", late.tail,
        tail_note(late) + ", p50 " + std::to_string(late.p50) + ", max " +
            std::to_string(*std::max_element(load.late_ms.begin(),
                                             load.late_ms.end())));
  }
  std::printf("  OK replies per second:");
  for (uint64_t n : load.ok_per_second) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  if (!load.first_error.empty()) {
    std::printf("  first error: %s\n", load.first_error.c_str());
  }

  bool correct = load.failed == 0;
  if (late.count > 0 && late.tail > kMaxLateP99Ms) {
    std::printf("  generator ran late (p99 %.3f ms > %.1f ms): run invalid\n",
                late.tail, kMaxLateP99Ms);
    correct = false;
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    const std::vector<Metric> client = {
        {"client.query_p99_ms", "ms", query.tail},
        {"client.batch_p50_ms", "ms", batch.p50},
        {"client.batch_p99_ms", "ms", batch.tail},
        {"client.load_p50_ms", "ms", reload.p50},
        {"client.error_frac", "1", error_frac},
        {"client.generator_late_p99_ms", "ms", late.tail},
    };
    metrics = LayerMetrics(workload, args.seed, server.get(), load, trace,
                           kWorkerThreads, client);
    for (const Metric& m : metrics) {
      std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  } else {
    metrics = {
        {"setup_s", "s", setup_median},
        {"throughput_rps", "req/s", throughput},
        {"query_p50_ms", "ms", query.p50},
        {"within_slo_frac", "1", within_slo},
        {"memory_mb", "MB", memory_mb},
    };
  }
  server.reset();
  fs::remove_all(workdir);
  std::fflush(stdout);
  PrintJson(correct, load.attempted, load.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
