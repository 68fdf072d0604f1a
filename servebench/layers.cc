#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "xcq/algebra/compiler.h"
#include "xcq/compress/compressor.h"
#include "xcq/engine/evaluator.h"
#include "xcq/instance/instance_io.h"
#include "xcq/session/query_session.h"
#include "xcq/xpath/parser.h"

namespace servebench {
namespace {

// Replays stop at whichever comes first; the spans are means over the
// requests replayed.
constexpr size_t kReplayRequests = 400;
constexpr double kReplaySeconds = 1.0;
constexpr int kEmptyRoundTrips = 200;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: replay: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Check(xcq::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).Value();
}

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e9;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  if (!in) Die("cannot read " + path);
  return buffer.str();
}

uint64_t CounterValue(const std::string& exposition, const std::string& name) {
  uint64_t total = 0;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name, 0) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    total += static_cast<uint64_t>(
        std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr));
  }
  return total;
}

// The workload's QUERY/BATCH requests in the order the generator draws
// them; LOADs are left out (the replay measures serving spans, and
// compress.* and instance.* measure what a LOAD costs).
std::vector<Request> ReplayRequests(const Workload& workload, uint64_t seed) {
  RequestStream stream(&workload, seed);
  const std::vector<bool> no_loads(workload.docs.size(), true);
  std::vector<Request> requests;
  while (requests.size() < kReplayRequests) {
    Request request = stream.Next(no_loads);
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<std::string> QueryTexts(const Workload& workload,
                                    const Request& request) {
  std::vector<std::string> texts;
  for (int q : request.queries) {
    texts.push_back(workload.docs[request.doc].queries[q]);
  }
  return texts;
}

// A private session per document, warmed to its split fixpoint like the
// served copy, for the spans below the store.
xcq::QuerySession WarmSession(const Document& doc, const std::string& xml) {
  xcq::QuerySession session =
      Check(xcq::QuerySession::Open(xml), "open " + doc.name);
  for (int pass = 0; pass < 8; ++pass) {
    uint64_t splits = 0;
    for (const std::string& q : doc.queries) {
      splits += Check(session.Run(q), "warm " + q).stats.splits;
    }
    if (splits == 0) break;
  }
  return session;
}

}  // namespace

Counters SnapshotCounters(xcq::server::TcpServer* server) {
  Counters c;
  const std::string exposition = server->store().ScrapeMetrics();
  c.stalls = CounterValue(exposition, "xcq_server_stalls_total");
  c.evictions = CounterValue(exposition, "xcq_store_evictions_total");
  c.spill_reads = server->store().spill_reads();
  for (const xcq::server::DocumentInfo& info : server->store().Stats()) {
    if (!info.resident) continue;
    c.names.push_back(info.name);
    c.visited.push_back(info.sweep_visited);
    c.full.push_back(info.sweep_full);
    c.batches.push_back(info.batches_served);
    c.shared.push_back(info.batches_shared);
  }
  return c;
}

void AddDeltas(const Counters& before, const Counters& after,
               LoadTrace* trace) {
  trace->stalls = after.stalls - before.stalls;
  trace->evictions = after.evictions - before.evictions;
  trace->spill_reads = after.spill_reads - before.spill_reads;
  for (size_t i = 0; i < after.names.size(); ++i) {
    const auto it =
        std::find(before.names.begin(), before.names.end(), after.names[i]);
    uint64_t visited = 0, full = 0, batches = 0, shared = 0;
    if (it != before.names.end()) {
      const size_t j = static_cast<size_t>(it - before.names.begin());
      if (after.visited[i] < before.visited[j] ||
          after.batches[i] < before.batches[j]) {
        continue;  // re-created since the first snapshot
      }
      visited = before.visited[j];
      full = before.full[j];
      batches = before.batches[j];
      shared = before.shared[j];
    }
    trace->visited += after.visited[i] - visited;
    trace->full += after.full[i] - full;
    trace->batches += after.batches[i] - batches;
    trace->shared += after.shared[i] - shared;
  }
}

std::vector<Metric> LayerMetrics(const Workload& workload, uint64_t seed,
                                 xcq::server::TcpServer* server,
                                 const LoadResult& load,
                                 const LoadTrace& trace,
                                 size_t worker_threads,
                                 const std::vector<Metric>& client_metrics) {
  xcq::server::DocumentStore& store = server->store();
  const std::vector<Request> requests = ReplayRequests(workload, seed);

  // --- tcp_server: one idle round trip through the whole front end.
  std::vector<double> rtt_us;
  {
    BlockingClient client(server->port());
    for (int i = 0; i < kEmptyRoundTrips; ++i) {
      const int64_t start = NowNs();
      client.Call("QUERY servebench-absent //a\n");
      rtt_us.push_back(Seconds(start) * 1e6);
    }
  }
  const double empty_rtt_us = Summarize(rtt_us, 50.0).p50;

  // --- document_store + protocol: the serving path of each request on
  // the live store, one at a time (no queue, no lock contention).
  double acquire_s = 0.0, span_s = 0.0, format_s = 0.0, parse_s = 0.0;
  size_t served = 0;
  {
    const int64_t replay_start = NowNs();
    for (const Request& request : requests) {
      if (served > 0 && Seconds(replay_start) > kReplaySeconds) break;
      const std::string& name = workload.docs[request.doc].name;
      const std::string header =
          request.wire.substr(0, request.wire.find('\n'));

      int64_t t = NowNs();
      for (int rep = 0; rep < 20; ++rep) {
        Check(xcq::server::ParseRequest(header), "parse request");
      }
      parse_s += Seconds(t) / 20;

      t = NowNs();
      const std::shared_ptr<xcq::server::StoredDocument> doc =
          Check(store.Acquire(name), "acquire " + name);
      acquire_s += Seconds(t);

      const std::vector<std::string> texts = QueryTexts(workload, request);
      t = NowNs();
      const xcq::server::QueryResponse response =
          [&]() -> xcq::server::QueryResponse {
        if (request.kind == Request::Kind::kBatch) return doc->Batch(texts);
        auto outcome = doc->Query(texts.front());
        if (!outcome.ok()) return outcome.status();
        return std::vector<xcq::QueryOutcome>{*outcome};
      }();
      span_s += Seconds(t);
      if (!response.ok()) Die("replay " + name + ": " +
                              response.status().ToString());

      t = NowNs();
      if (request.kind == Request::Kind::kBatch) {
        xcq::server::BuildBatchReply(&store, name, texts, response);
      } else {
        xcq::server::BuildQueryReply(&store, name, texts.front(), response);
      }
      format_s += Seconds(t);
      ++served;
    }
  }
  const double per = served > 0 ? 1.0 / static_cast<double>(served) : 0.0;
  const double acquire_ms = acquire_s * per * 1e3;
  const double span_ms = span_s * per * 1e3;
  const double format_ms = format_s * per * 1e3;
  const double parse_ms = parse_s * per * 1e3;

  // --- below the store: private warmed sessions and instances.
  std::vector<std::string> xmls;
  std::vector<xcq::QuerySession> sessions;
  double compress_s = 0.0, serialize_s = 0.0, deserialize_s = 0.0;
  uint64_t xml_bytes = 0;
  for (const Document& doc : workload.docs) {
    xmls.push_back(ReadFile(doc.variants[0].xml_path));
    const xcq::xpath::QueryRequirements reqs =
        Check(xcq::CollectBatchRequirements(doc.queries), "requirements");
    xcq::CompressOptions copts;
    copts.mode = xcq::LabelMode::kSchema;
    copts.tags = reqs.tags;
    copts.patterns = reqs.patterns;
    int64_t t = NowNs();
    Check(xcq::CompressXml(xmls.back(), copts), "compress " + doc.name);
    compress_s += Seconds(t);
    xml_bytes += xmls.back().size();

    sessions.push_back(WarmSession(doc, xmls.back()));
    t = NowNs();
    const std::string bytes =
        xcq::SerializeInstanceChecksummed(sessions.back().instance());
    serialize_s += Seconds(t);
    t = NowNs();
    Check(xcq::DeserializeInstance(bytes), "deserialize " + doc.name);
    deserialize_s += Seconds(t);
  }
  const double per_doc = 1.0 / static_cast<double>(workload.docs.size());

  double session_s = 0.0, xpath_s = 0.0, compile_s = 0.0;
  double eval_s = 0.0, unpruned_s = 0.0;
  size_t session_requests = 0, queries_evaluated = 0;
  std::vector<xcq::Instance> shadows;
  for (const xcq::QuerySession& session : sessions) {
    shadows.push_back(session.instance());
  }
  {
    const int64_t replay_start = NowNs();
    for (const Request& request : requests) {
      if (session_requests > 0 && Seconds(replay_start) > kReplaySeconds) break;
      const std::vector<std::string> texts = QueryTexts(workload, request);
      xcq::QuerySession& session = sessions[request.doc];
      int64_t t = NowNs();
      if (request.kind == Request::Kind::kBatch) {
        Check(session.RunBatch(texts), "session batch");
      } else {
        Check(session.Run(texts.front()), "session query");
      }
      session_s += Seconds(t);
      ++session_requests;

      for (const std::string& text : texts) {
        t = NowNs();
        const xcq::xpath::Query query =
            Check(xcq::xpath::ParseQuery(text), "parse");
        xpath_s += Seconds(t);
        t = NowNs();
        const xcq::algebra::QueryPlan plan =
            Check(xcq::algebra::Compile(query), "compile");
        compile_s += Seconds(t);

        // Both modes run on the same shadow, so whichever runs second
        // finds its caches warm; alternating the order per query gives
        // each mode the warm slot half of the time.
        const bool pruned_first = queries_evaluated % 2 == 0;
        for (const bool prune : {pruned_first, !pruned_first}) {
          xcq::engine::EvalOptions options;
          options.prune_sweeps = prune;
          t = NowNs();
          Check(xcq::engine::Evaluate(&shadows[request.doc], plan, options),
                prune ? "evaluate" : "evaluate unpruned");
          (prune ? eval_s : unpruned_s) += Seconds(t);
        }
        ++queries_evaluated;
      }
    }
  }
  const double per_request = 1.0 / static_cast<double>(session_requests);
  const double per_query = 1.0 / static_cast<double>(queries_evaluated);

  // --- waits from Little's law over the sampled slices.
  const double lambda = static_cast<double>(load.ok_in_window) / load.seconds;
  const double queue_wait_ms =
      LittleWaitSeconds(trace.queue.Mean(), lambda) * 1e3;
  const double in_service_ms =
      LittleWaitSeconds(trace.inflight.Mean(), lambda) * 1e3;
  const double client_mean_ms = Summarize(load.all_ms, 50.0).mean;
  const double outside_pool_ms = client_mean_ms - queue_wait_ms - in_service_ms;
  const double lock_wait_ms =
      std::max(0.0, in_service_ms - acquire_ms - span_ms - format_ms);
  const double assigned_ms = empty_rtt_us / 1e3 + parse_ms + queue_wait_ms +
                             acquire_ms + lock_wait_ms + span_ms + format_ms;
  const double unassigned_frac =
      client_mean_ms > 0.0 ? (client_mean_ms - assigned_ms) / client_mean_ms
                           : 0.0;
  const double sampled_rps =
      load.sampled_s > 0.0
          ? static_cast<double>(load.ok_sampled) / load.sampled_s
          : 0.0;
  const double untraced_rps =
      load.unsampled_s > 0.0
          ? static_cast<double>(load.ok_unsampled) / load.unsampled_s
          : 0.0;

  const double attempted = static_cast<double>(std::max<uint64_t>(1, load.attempted));
  const size_t cap = workload.spec.capacity_bytes;
  const double over_capacity_mb =
      cap == 0 ? 0.0
               : std::max(0.0, trace.resident_bytes.peak() -
                                   static_cast<double>(cap)) /
                     (1024.0 * 1024.0);
  const double query_replies =
      static_cast<double>(std::max<uint64_t>(1, load.query_replies));

  std::vector<Metric> m = client_metrics;
  auto add = [&m](const char* name, const char* unit, double value) {
    m.push_back({name, unit, value});
  };
  add("tcp_server.outside_pool_ms", "ms", outside_pool_ms);
  add("tcp_server.empty_rtt_us", "us", empty_rtt_us);
  add("tcp_server.stalls_per_kreq", "1/kreq",
      static_cast<double>(trace.stalls) * 1e3 / attempted);
  add("protocol.parse_us", "us", parse_ms * 1e3);
  add("protocol.format_us", "us", format_ms * 1e3);
  add("query_service.queue_wait_ms", "ms", queue_wait_ms);
  add("query_service.in_service_ms", "ms", in_service_ms);
  add("query_service.busy_frac", "1",
      trace.inflight.Mean() / static_cast<double>(worker_threads));
  add("document_store.lock_wait_ms", "ms", lock_wait_ms);
  add("document_store.acquire_us", "us", acquire_ms * 1e3);
  add("document_store.query_span_us", "us", span_ms * 1e3);
  add("document_store.fault_ins_per_req", "1",
      static_cast<double>(trace.spill_reads) / attempted);
  add("document_store.evictions_per_req", "1",
      static_cast<double>(trace.evictions) / attempted);
  add("document_store.over_capacity_mb", "MB", over_capacity_mb);
  add("instance.deserialize_ms", "ms", deserialize_s * per_doc * 1e3);
  add("instance.serialize_ms", "ms", serialize_s * per_doc * 1e3);
  add("compress.load_ms", "ms", compress_s * per_doc * 1e3);
  add("compress.mb_per_s", "MB/s",
      static_cast<double>(xml_bytes) / (1024.0 * 1024.0) / compress_s);
  add("session.query_us", "us", session_s * per_request * 1e6);
  add("session.label_ms_per_req", "ms", load.label_s * 1e3 / query_replies);
  add("xpath.parse_us", "us", xpath_s * per_query * 1e6);
  add("algebra.compile_us", "us", compile_s * per_query * 1e6);
  add("engine.evaluate_us", "us", eval_s * per_query * 1e6);
  add("engine.evaluate_unpruned_us", "us", unpruned_s * per_query * 1e6);
  add("engine.prune_speedup", "x", unpruned_s / eval_s);
  add("engine.visited_frac", "1",
      trace.full > 0 ? static_cast<double>(trace.visited) /
                           static_cast<double>(trace.full)
                     : 0.0);
  add("engine.splits_per_query", "1",
      static_cast<double>(load.splits) / query_replies);
  add("engine.shared_batch_frac", "1",
      trace.batches > 0 ? static_cast<double>(trace.shared) /
                              static_cast<double>(trace.batches)
                        : 0.0);
  add("unassigned_frac", "1", unassigned_frac);
  add("trace_overhead_frac", "1",
      untraced_rps > 0.0 ? 1.0 - sampled_rps / untraced_rps : 0.0);
  return m;
}

}  // namespace servebench
