#include "workload.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "xcq/algebra/compiler.h"
#include "xcq/baseline/tree_evaluator.h"
#include "xcq/compress/compressor.h"
#include "xcq/corpus/queries.h"
#include "xcq/corpus/registry.h"
#include "xcq/instance/instance_io.h"
#include "xcq/session/query_session.h"
#include "xcq/tree/tree_builder.h"

namespace servebench {
namespace {

// Why each workload exists is recorded in README.md; the numbers here
// are the frozen inputs. Capacities and rates are constants, not
// derived from the program's behaviour, so a change that shrinks
// instances or speeds up serving shows as fewer fault-ins or lower
// latency rather than as a moved target. The latency limits of the
// gated workloads sit near their measured p96-p97, so 3-4% of requests
// miss them and within_slo_frac's 0.10 bound trips when that share
// grows about fourfold.
const WorkloadSpec kSpecs[] = {
    {.name = "hot_doc",
     .loop = Loop::kClosed,
     .slo_ms = 100.0},
    {.name = "fleet_open",
     .loop = Loop::kOpen,
     .offered_rps = 1200.0,
     .batch_share = 0.2,
     .slo_ms = 8.0},
    {.name = "spill_churn",
     .loop = Loop::kClosed,
     .reload_share = 0.01,
     .reload_xcqi = true,  // back to XML once spill_race passes (README (d))
     .durable = true,
     .capacity_bytes = size_t{11} << 18,  // 2.75 MiB
     .slo_ms = 18.0},
    // spill_churn with re-LOADs from XML instead of .xcqi: the
    // reproducer of finding (d), expected to fail until it is fixed. Not
    // a BENCHMARK.json workload.
    {.name = "spill_race",
     .loop = Loop::kClosed,
     .reload_share = 0.01,
     .durable = true,
     .capacity_bytes = size_t{11} << 18,
     .slo_ms = 18.0},
};

// bench_prune's TreeBank probes, one per sweep family (its "appendix"
// probe is Appendix-A Q2, already in the set).
const char* const kTreeBankProbes[] = {
    "//FILE/EMPTY/S/VP",
    "//NP/ancestor::S",
    "//VP/following-sibling::NP",
};

struct DocPlan {
  const char* corpus;
  uint64_t nodes;
  int copies;    // documents made from this corpus (distinct seeds)
  int variants;  // versions per document (mid-run re-LOADs alternate)
};

// spill_race shares spill_churn's documents.
std::vector<DocPlan> PlanFor(const std::string& workload) {
  if (workload == "hot_doc") return {{"TreeBank", 62500, 1, 1}};
  if (workload == "fleet_open") {
    return {{"Shakespeare", 15000, 1, 1},
            {"DBLP", 15000, 1, 1},
            {"XMark", 15000, 1, 1},
            {"OMIM", 15000, 1, 1},
            {"Baseball", 15000, 1, 1}};
  }
  return {{"SwissProt", 200000, 2, 2},  {"DBLP", 100000, 2, 2},
          {"XMark", 76000, 2, 2},       {"OMIM", 80000, 2, 2},
          {"Shakespeare", 72000, 2, 2}, {"Baseball", 28000, 2, 2}};
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Check(xcq::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).Value();
}

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace

bool FindSpec(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& candidate : kSpecs) {
    if (candidate.name == name) {
      *spec = candidate;
      return true;
    }
  }
  return false;
}

Workload MakeWorkload(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir) {
  Workload workload;
  workload.spec = spec;
  uint64_t stream = Mix(seed);
  for (const DocPlan& plan : PlanFor(spec.name)) {
    const xcq::corpus::CorpusGenerator* generator =
        Check(xcq::corpus::FindCorpus(plan.corpus), "corpus");
    const xcq::corpus::QuerySet set =
        Check(xcq::corpus::QueriesFor(plan.corpus), "queries");
    std::vector<std::string> queries(set.queries.begin(), set.queries.end());
    if (spec.name == "hot_doc") {
      queries.insert(queries.end(), std::begin(kTreeBankProbes),
                     std::end(kTreeBankProbes));
    }

    // One compiled plan per query serves every variant's oracle run.
    std::vector<xcq::algebra::QueryPlan> plans;
    for (const std::string& text : queries) {
      plans.push_back(
          Check(xcq::algebra::CompileString(text), "compile " + text));
    }
    const xcq::xpath::QueryRequirements labels =
        Check(xcq::CollectBatchRequirements(queries), "labels");

    for (int copy = 0; copy < plan.copies; ++copy) {
      Document doc;
      doc.name = Lower(plan.corpus);
      if (plan.copies > 1) doc.name += "-" + std::to_string(copy);
      doc.queries = queries;
      for (int v = 0; v < plan.variants; ++v) {
        stream = Mix(stream);
        Variant variant;
        xcq::corpus::GenerateOptions gen;
        gen.target_nodes = plan.nodes;
        gen.seed = stream % 1000000007ULL;
        const std::string xml = generator->Generate(gen);
        variant.xml_path =
            dir + "/" + doc.name + ".v" + std::to_string(v) + ".xml";
        std::ofstream out(variant.xml_path, std::ios::binary);
        out << xml;
        if (!out.flush()) Die("cannot write " + variant.xml_path);

        if (spec.reload_xcqi) {
          xcq::CompressOptions copts;
          copts.mode = xcq::LabelMode::kSchema;
          copts.tags = labels.tags;
          copts.patterns = labels.patterns;
          variant.xcqi_path =
              dir + "/" + doc.name + ".v" + std::to_string(v) + ".xcqi";
          const xcq::Status saved = xcq::SaveInstance(
              Check(xcq::CompressXml(xml, copts), "compress"),
              variant.xcqi_path);
          if (!saved.ok()) Die("save " + variant.xcqi_path);
        }
        const xcq::LabeledTree tree =
            Check(xcq::TreeBuilder::Build(xml, labels.patterns), "tree build");
        for (const xcq::algebra::QueryPlan& compiled : plans) {
          variant.expected.push_back(
              Check(xcq::baseline::Evaluate(tree, compiled), "oracle")
                  .Count());
        }
        doc.variants.push_back(std::move(variant));
      }
      workload.docs.push_back(std::move(doc));
    }
  }
  return workload;
}

RequestStream::RequestStream(const Workload* workload, uint64_t seed)
    : workload_(workload),
      rng_(Mix(seed ^ 0x5eedULL)),
      current_variant_(workload->docs.size(), 0) {}

Request RequestStream::MakeQuery(const Workload& workload, int doc,
                                 int query) {
  Request request;
  request.kind = Request::Kind::kQuery;
  request.doc = doc;
  request.queries = {query};
  request.wire = "QUERY " + workload.docs[doc].name + " " +
                 workload.docs[doc].queries[query] + "\n";
  return request;
}

Request RequestStream::Next(const std::vector<bool>& loading) {
  const WorkloadSpec& spec = workload_->spec;
  const int doc = static_cast<int>(
      rng_.Uniform(0, workload_->docs.size() - 1));
  const Document& d = workload_->docs[doc];
  const double roll = rng_.UniformReal();
  if (roll < spec.reload_share && d.variants.size() > 1 && !loading[doc]) {
    Request request;
    request.kind = Request::Kind::kLoad;
    request.doc = doc;
    current_variant_[doc] =
        (current_variant_[doc] + 1) % static_cast<int>(d.variants.size());
    const Variant& variant = d.variants[current_variant_[doc]];
    request.wire = "LOAD " + d.name + " " +
                   (spec.reload_xcqi ? variant.xcqi_path : variant.xml_path) +
                   "\n";
    return request;
  }
  if (roll >= spec.reload_share && roll < spec.reload_share + spec.batch_share) {
    Request request;
    request.kind = Request::Kind::kBatch;
    request.doc = doc;
    request.wire = "BATCH " + d.name + " " + std::to_string(kBatchSize) + "\n";
    for (size_t i = 0; i < kBatchSize; ++i) {
      const int query =
          static_cast<int>(rng_.Uniform(0, d.queries.size() - 1));
      request.queries.push_back(query);
      request.wire += d.queries[query] + "\n";
    }
    return request;
  }
  return MakeQuery(*workload_, doc,
                   static_cast<int>(rng_.Uniform(0, d.queries.size() - 1)));
}

}  // namespace servebench
