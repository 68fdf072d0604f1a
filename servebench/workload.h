#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// The three serving workloads: which documents are loaded, which
// queries are asked of them, how requests are drawn, and the expected
// answer of every (document, seed, query) from the uncompressed-tree
// oracle. Everything here is a function of the workload name and the
// seed; the server only ever sees the generated XML files and the
// request lines.

#include <cstdint>
#include <string>
#include <vector>

#include "xcq/util/rng.h"

namespace servebench {

enum class Loop { kClosed, kOpen };

// Connections of every workload (one generator thread drives them all)
// and queries per fleet_open BATCH.
inline constexpr size_t kConnections = 4;
inline constexpr size_t kBatchSize = 8;

// One generated version of a document: the XML file the server LOADs
// and the oracle's selected tree-node count for each of its queries.
struct Variant {
  std::string xml_path;
  // The variant compressed with every label its queries need and saved
  // as an instance file; only for workloads that re-LOAD .xcqi files.
  std::string xcqi_path;
  std::vector<uint64_t> expected;
};

struct Document {
  std::string name;  // name on the wire
  std::vector<std::string> queries;
  // variants[0] is loaded at set-up; mid-run re-LOADs alternate.
  std::vector<Variant> variants;
};

struct Request {
  enum class Kind { kQuery, kBatch, kLoad };
  Kind kind = Kind::kQuery;
  int doc = 0;
  std::vector<int> queries;  // indices into Document::queries
  std::string wire;          // request bytes, newline-terminated
};

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kClosed;
  double offered_rps = 0.0;   // open loop only
  double batch_share = 0.0;   // share of requests that are BATCH
  double reload_share = 0.0;  // share of requests that re-LOAD
  bool reload_xcqi = false;   // re-LOAD .xcqi artifacts instead of XML
  bool durable = false;       // store spills to a data dir
  size_t capacity_bytes = 0;  // store capacity; 0 = unlimited
  double slo_ms = 0.0;        // latency limit of within_slo_frac
};

struct Workload {
  WorkloadSpec spec;
  std::vector<Document> docs;
};

// The spec of a named workload; false for unknown names.
bool FindSpec(const std::string& name, WorkloadSpec* spec);

// Generates the documents of `spec` from `seed`, writes each variant's
// XML under `dir`, and fills the oracle's expected counts.
Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir);

// Draws the workload's requests; deterministic in its seed and in the
// order replies come back.
class RequestStream {
 public:
  RequestStream(const Workload* workload, uint64_t seed);

  // The next request for a connection. `loading[d]` is true while a LOAD
  // of document d is unanswered; no second LOAD of it is drawn then.
  Request Next(const std::vector<bool>& loading);

  static Request MakeQuery(const Workload& workload, int doc, int query);

 private:
  const Workload* workload_;
  xcq::Rng rng_;
  std::vector<int> current_variant_;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
