#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "metrics/bleu.hpp"

namespace perfbench {
using namespace adaparse;

std::string spec_body(const std::string& tenant, const std::string& variant,
                      double alpha, std::size_t batch_size, std::size_t count,
                      std::uint32_t seed) {
  util::JsonObject engine;
  engine["variant"] = variant;
  engine["alpha"] = alpha;
  engine["batch_size"] = batch_size;
  util::JsonObject generator;
  generator["count"] = count;
  generator["seed"] = static_cast<std::int64_t>(seed);
  util::JsonObject documents;
  documents["generator"] = util::Json(std::move(generator));
  util::JsonObject spec;
  spec["tenant"] = tenant;
  spec["engine"] = util::Json(std::move(engine));
  spec["documents"] = util::Json(std::move(documents));
  return util::Json(std::move(spec)).dump();
}

std::string parse_request(const std::string& body) {
  return "POST /v1/parse HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

double mean_bleu(const std::vector<const doc::Document*>& docs,
                 const std::vector<const io::ParseRecord*>& records) {
  std::vector<double> bleu(docs.size(), 0.0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < nproc(); ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < docs.size(); i = next++) {
        bleu[i] = metrics::bleu(records[i]->text, docs[i]->full_groundtruth());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  double sum = 0.0;
  for (const double b : bleu) sum += b;
  return docs.empty() ? 0.0 : sum / static_cast<double>(docs.size());
}

void report_trace_overhead(double untraced_docs_per_s,
                           double traced_docs_per_s, Report& report) {
  report.set("trace.overhead", untraced_docs_per_s / traced_docs_per_s - 1.0);
}

}  // namespace perfbench
