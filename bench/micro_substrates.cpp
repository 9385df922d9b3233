// Micro-benchmarks (google-benchmark) for the substrate layers: XML parse /
// serialize, XPath evaluation, DataGuide construction and matching. These
// quantify the per-operation costs behind the figure benches.
#include <benchmark/benchmark.h>

#include "dataguide/dataguide.hpp"
#include "dataguide/guide_match.hpp"
#include "txn/operation.hpp"
#include "util/rng.hpp"
#include "workload/fragmentation.hpp"
#include "workload/workload_gen.hpp"
#include "workload/xmark.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/evaluator.hpp"
#include "xpath/parser.hpp"

namespace {

using namespace dtx;

const workload::XmarkData& xmark_of(std::size_t bytes) {
  static std::map<std::size_t, workload::XmarkData> cache;
  auto it = cache.find(bytes);
  if (it == cache.end()) {
    workload::XmarkOptions options;
    options.target_bytes = bytes;
    it = cache.emplace(bytes, workload::generate_xmark(options)).first;
  }
  return it->second;
}

void BM_XmlParse(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const std::string text = xml::serialize(*xmark_of(bytes).document);
  for (auto _ : state) {
    auto parsed = xml::parse(text, "bench");
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_XmlParse)->Arg(50'000)->Arg(200'000)->Arg(800'000);

void BM_XmlSerialize(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const workload::XmarkData& data = xmark_of(bytes);
  for (auto _ : state) {
    std::string text = xml::serialize(*data.document);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_XmlSerialize)->Arg(50'000)->Arg(200'000)->Arg(800'000);

void BM_XPathPointQuery(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  const std::string id = data.person_ids[data.person_ids.size() / 2];
  auto path = xpath::parse("/site/people/person[@id='" + id + "']/name");
  for (auto _ : state) {
    auto nodes = xpath::evaluate(path.value(), *data.document);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_XPathPointQuery);

void BM_XPathDescendantScan(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  auto path = xpath::parse("//item/price");
  for (auto _ : state) {
    auto nodes = xpath::evaluate(path.value(), *data.document);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_XPathDescendantScan);

// The shapes the workload generator sends to one fragment: dtxbench's
// read-snapshot base is 4 MB cut into fragments, and each query runs on one
// fragment's tree, not on the whole document.
struct PeopleFragment {
  std::unique_ptr<xml::Document> document;
  std::string id;  // a person in the middle of the fragment
};

const PeopleFragment& people_fragment() {
  static const PeopleFragment fragment = [] {
    for (const workload::Fragment& candidate :
         workload::fragment_xmark(xmark_of(4'000'000), 8)) {
      if (candidate.section != "people") continue;
      auto parsed = xml::parse(candidate.xml, candidate.doc_name);
      return PeopleFragment{std::move(parsed).value(),
                            candidate.ids[candidate.ids.size() / 2]};
    }
    return PeopleFragment{};
  }();
  return fragment;
}

void run_on_people_fragment(benchmark::State& state, const std::string& expr,
                            bool strings) {
  const PeopleFragment& fragment = people_fragment();
  auto path = xpath::parse(expr);
  for (auto _ : state) {
    if (strings) {
      auto rows = xpath::evaluate_strings(path.value(), *fragment.document);
      benchmark::DoNotOptimize(rows);
    } else {
      auto nodes = xpath::evaluate(path.value(), *fragment.document);
      benchmark::DoNotOptimize(nodes);
    }
  }
  state.counters["doc_nodes"] =
      static_cast<double>(fragment.document->node_count());
}

void BM_XPathFragmentPointQuery(benchmark::State& state) {
  run_on_people_fragment(
      state, "/site/people/person[@id='" + people_fragment().id + "']/name",
      false);
}
BENCHMARK(BM_XPathFragmentPointQuery);

void BM_XPathFragmentDescendantPointQuery(benchmark::State& state) {
  run_on_people_fragment(
      state, "//person[@id='" + people_fragment().id + "']/emailaddress",
      false);
}
BENCHMARK(BM_XPathFragmentDescendantPointQuery);

void BM_XPathFragmentScanStrings(benchmark::State& state) {
  run_on_people_fragment(state, "/site/people/person/name", true);
}
BENCHMARK(BM_XPathFragmentScanStrings);

// The generator's read mix over every fragment of the same 4 MB base: the
// read-only operations WorkloadGenerator produces, each evaluated on its
// fragment's tree as a snapshot read runs it (evaluate_strings). One
// benchmark per query shape; an iteration is one operation, the next in the
// generated order.
enum class Shape { kChildPoint, kDescendantPoint, kScan };

struct GeneratorMix {
  std::map<std::string, std::unique_ptr<xml::Document>> docs;
  std::vector<std::pair<const xml::Document*, xpath::Path>> ops[3];
};

const GeneratorMix& generator_mix() {
  static const GeneratorMix mix = [] {
    GeneratorMix out;
    const std::vector<workload::Fragment> fragments =
        workload::fragment_xmark(xmark_of(4'000'000), 8);
    for (const workload::Fragment& fragment : fragments) {
      out.docs.emplace(fragment.doc_name,
                       xml::parse(fragment.xml, fragment.doc_name).value());
    }
    workload::WorkloadGenerator generator(fragments, {});
    util::Rng rng(7);
    for (int txn = 0; txn < 2000; ++txn) {
      for (const std::string& text : generator.make_transaction(rng)) {
        const txn::Operation op = txn::parse_operation(text).value();
        const std::string query = op.query.to_string();
        const Shape shape =
            query.find("[@id=") == std::string::npos ? Shape::kScan
            : query.rfind("//", 0) == 0              ? Shape::kDescendantPoint
                                                     : Shape::kChildPoint;
        out.ops[static_cast<int>(shape)].emplace_back(
            out.docs.at(op.doc).get(), op.query);
      }
    }
    return out;
  }();
  return mix;
}

void BM_XPathGeneratorMix(benchmark::State& state, Shape shape) {
  const auto& ops = generator_mix().ops[static_cast<int>(shape)];
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [doc, path] = ops[next];
    auto rows = xpath::evaluate_strings(path, *doc);
    benchmark::DoNotOptimize(rows);
    next = next + 1 == ops.size() ? 0 : next + 1;
  }
  state.counters["ops"] = static_cast<double>(ops.size());
}
BENCHMARK_CAPTURE(BM_XPathGeneratorMix, child_point, Shape::kChildPoint);
BENCHMARK_CAPTURE(BM_XPathGeneratorMix, descendant_point,
                  Shape::kDescendantPoint);
BENCHMARK_CAPTURE(BM_XPathGeneratorMix, scan, Shape::kScan);

void BM_XPathParse(benchmark::State& state) {
  for (auto _ : state) {
    auto path = xpath::parse(
        "/site/people/person[@id='person42']/profile/age");
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_XPathParse);

void BM_DataGuideBuild(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const workload::XmarkData& data = xmark_of(bytes);
  for (auto _ : state) {
    auto guide = dataguide::DataGuide::build(*data.document);
    benchmark::DoNotOptimize(guide);
  }
  state.counters["doc_nodes"] =
      static_cast<double>(data.document->node_count());
}
BENCHMARK(BM_DataGuideBuild)->Arg(50'000)->Arg(200'000)->Arg(800'000);

void BM_GuideMatch(benchmark::State& state) {
  const workload::XmarkData& data = xmark_of(200'000);
  auto guide = dataguide::DataGuide::build(*data.document);
  auto path = xpath::parse("/site/people/person[@id='person1']/name");
  for (auto _ : state) {
    auto result = dataguide::match(path.value(), *guide);
    benchmark::DoNotOptimize(result);
  }
  // The headline contrast: the guide has orders of magnitude fewer nodes
  // than the document.
  state.counters["guide_nodes"] = static_cast<double>(guide->node_count());
  state.counters["doc_nodes"] =
      static_cast<double>(data.document->node_count());
}
BENCHMARK(BM_GuideMatch);

}  // namespace

BENCHMARK_MAIN();
