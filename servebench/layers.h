#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

// The traced run's per-layer accounting. Waits come from Little's law
// over the load phase (queue depth and in-flight jobs sampled on every
// generator wakeup); spans come from a single-threaded replay of the
// workload's own requests through each layer's public entry point,
// timed from the benchmark's side of the call. Nothing inside the
// library is instrumented for this.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "loadgen.h"
#include "workload.h"
#include "xcq/server/tcp_server.h"

namespace servebench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What the generator and the store reported over the load phase.
struct LoadTrace {
  StepMean queue{0.05};
  StepMean inflight{0.05};
  StepMean resident_bytes{0.05};
  uint64_t stalls = 0;       // xcq_server_stalls_total delta
  uint64_t spill_reads = 0;  // DocumentStore::spill_reads() delta
  uint64_t evictions = 0;    // xcq_store_evictions_total delta
  uint64_t visited = 0;      // STATS visited= delta
  uint64_t full = 0;         // STATS full= delta
  uint64_t batches = 0;      // STATS batches= delta
  uint64_t shared = 0;       // STATS shared= delta
};

// Counter snapshot taken before and after the load phase.
struct Counters {
  uint64_t stalls = 0;
  uint64_t evictions = 0;
  uint64_t spill_reads = 0;
  // Per resident document: visited, full, batches, shared.
  std::vector<std::string> names;
  std::vector<uint64_t> visited, full, batches, shared;
};

Counters SnapshotCounters(xcq::server::TcpServer* server);

// Fills the deltas of `trace` from two snapshots. STATS counters live
// with a resident document and restart when it is faulted back in, so
// documents whose counters went backwards are left out.
void AddDeltas(const Counters& before, const Counters& after,
               LoadTrace* trace);

// Runs the replay against the idle server and combines it with the load
// phase into the per-layer metrics, in BENCHMARK.json order.
std::vector<Metric> LayerMetrics(const Workload& workload, uint64_t seed,
                                 xcq::server::TcpServer* server,
                                 const LoadResult& load,
                                 const LoadTrace& trace,
                                 size_t worker_threads,
                                 const std::vector<Metric>& client_metrics);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
