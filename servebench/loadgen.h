#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

// The client side of the benchmark: a blocking one-request-at-a-time
// client for set-up and probes, and the single-threaded, ppoll-driven
// load generator that times every request from outside the server.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "workload.h"
#include "xcq/server/protocol.h"

namespace servebench {

int64_t NowNs();

// One loopback connection used synchronously: send a request, wait for
// its whole reply. Exits the process on socket errors (set-up cannot
// continue without the server).
class BlockingClient {
 public:
  explicit BlockingClient(uint16_t port);
  ~BlockingClient();
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  std::vector<std::string> Call(const std::string& wire);

 private:
  int fd_ = -1;
  xcq::server::LineFramer framer_{size_t{1} << 26};
  ReplyAssembler assembler_;
};

// Checks one reply against the oracle for the variants `versions` may
// stand for. Returns "" when it is correct, else what was wrong.
std::string CheckReply(const Workload& workload, const Request& request,
                       int first_version, int last_version,
                       const std::vector<std::string>& reply);

struct LoadOptions {
  double seconds = 10.0;
  uint64_t seed = 0;  // draws the open-loop arrival times
  // The store's resident bytes (the STATS bytes= sum, without a socket
  // round trip), read every 50 ms through the window.
  std::function<double()> resident_bytes;
  // Called every 0.5 ms with the time since the start (s), in every other
  // 0.5 s slice, so sampled and unsampled throughput come from the same
  // run; null = no sampling.
  std::function<void(double)> sampler;
};

struct LoadResult {
  double seconds = 0.0;  // measured window
  uint64_t attempted = 0;
  uint64_t failed = 0;       // ERR replies, unanswered, mismatches
  uint64_t mismatches = 0;   // oracle disagreements (also in failed)
  uint64_t ok_in_window = 0;  // OK replies received inside the window
  std::vector<uint64_t> ok_per_second;  // the same, per second of the window
  uint64_t within_slo = 0;   // OK replies no later than the limit
  std::vector<double> query_ms;
  std::vector<double> batch_ms;
  std::vector<double> load_ms;
  std::vector<double> late_ms;  // open loop: enqueue time - due time
  std::vector<double> all_ms;   // every OK reply
  uint64_t query_replies = 0;   // OK QUERY replies (incl. batch lines)
  uint64_t splits = 0;          // summed `splits=` of those replies
  double label_s = 0.0;         // summed `label_s=`
  // Traced runs: OK completions in sampled / unsampled slices and the
  // time each kind of slice covered.
  uint64_t ok_sampled = 0;
  uint64_t ok_unsampled = 0;
  double sampled_s = 0.0;
  double unsampled_s = 0.0;
  double resident_mean_bytes = 0.0;  // time-weighted over the window
  std::string first_error;
};

// Drives `workload` against the server on `port` for `options.seconds`
// from a single thread over kConnections connections, then waits
// for every outstanding reply (bounded). Requests come from `stream`.
LoadResult RunLoad(const Workload& workload, uint16_t port,
                   RequestStream* stream, const LoadOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
