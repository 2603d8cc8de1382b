// Network front-end benchmark: an open-loop multi-tenant load generator
// driving the /v1 HTTP API over real sockets.
//
// Three tenants (alpha weight 2.0, beta, gamma with tight deadlines) open
// one connection per job on independent Poisson arrival processes and
// POST /v1/parse generator specs, reading each JSONL stream to completion
// on its own thread. Job latency is measured client-side, from the first
// request byte to the done line, so it includes the full wire path. A
// slow-client scenario then proves the backpressure contract: a reader
// with a tiny receive buffer that stops draining parks its job at the
// write high watermark instead of growing server memory, and
// resident_documents() never exceeds the admission watermark.
//
// Emits BENCH_http.json (p50/p95/p99 per tenant and overall; slow-client
// verdict) and exits non-zero unless every stream finished and the
// service drained cleanly.
//
//   bench_http [--smoke] [host:port]
//
// With host:port the load is aimed at an external server (the CI
// http-serve job boots examples/http_server and drives it this way);
// service-side assertions that need in-process introspection are skipped.
// --smoke shrinks the load for sanitizer/CI runs.
//
//   ADAPARSE_BENCH_N      total documents across all jobs (default 1000)
//   ADAPARSE_HTTP_DOCS    documents per job               (default 25)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/socket.hpp"
#include "serve/http/server.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace adaparse;
using namespace std::chrono_literals;

namespace {

// ---- tiny blocking HTTP client ----------------------------------------

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const net::IoResult r = net::write_some(fd, data);
    if (r.status != net::IoStatus::kOk) return;
    data.remove_prefix(r.bytes);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[16384];
  for (;;) {
    const net::IoResult r = net::read_some(fd, buf, sizeof(buf));
    if (r.status != net::IoStatus::kOk) break;
    out.append(buf, r.bytes);
  }
  return out;
}

std::string dechunk(std::string_view body) {
  std::string out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = body.find("\r\n", pos);
    if (eol == std::string_view::npos) break;
    std::size_t size = 0;
    for (std::size_t i = pos; i < eol; ++i) {
      const char c = body[i];
      if (c == ';') break;
      size = size * 16 +
             static_cast<std::size_t>(
                 c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
    }
    if (size == 0) break;
    out.append(body.substr(eol + 2, size));
    pos = eol + 2 + size + 2;
  }
  return out;
}

std::string post_parse(const std::string& host, const std::string& body) {
  return "POST /v1/parse HTTP/1.1\r\nHost: " + host +
         "\r\nConnection: close\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct JobOutcome {
  std::string tenant;
  double latency_seconds = 0.0;
  std::size_t records = 0;
  bool completed = false;
};

std::string spec_body(const char* tenant, std::size_t docs,
                      std::uint64_t seed, bool deadline) {
  std::string body = "{\"tenant\":\"";
  body += tenant;
  body += "\",\"engine\":{\"variant\":\"fasttext\",\"alpha\":0.10,"
          "\"batch_size\":32},";
  if (deadline) body += "\"deadline_ms\":200,";
  body += "\"documents\":{\"generator\":{\"count\":" +
          std::to_string(docs) + ",\"seed\":" + std::to_string(seed) +
          "}}}";
  return body;
}

/// Runs one job over the wire and scores the stream.
JobOutcome run_job(const std::string& host, std::uint16_t port,
                   const char* tenant, std::size_t docs,
                   std::uint64_t seed) {
  JobOutcome out;
  out.tenant = tenant;
  util::Stopwatch watch;
  try {
    net::Fd fd = net::connect_blocking(host, port);
    send_all(fd.get(),
             post_parse(host, spec_body(tenant, docs, seed,
                                        tenant == std::string("gamma"))));
    const std::string raw = read_to_eof(fd.get());
    out.latency_seconds = watch.seconds();
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos ||
        raw.compare(0, 15, "HTTP/1.1 200 OK") != 0) {
      return out;
    }
    const auto lines = split_lines(dechunk(raw.substr(head_end + 4)));
    if (lines.size() < 2) return out;
    out.records = lines.size() - 2;  // minus created + done lines
    const auto done = util::Json::parse(lines.back());
    out.completed =
        done.at("done").at("state").as_string() == "completed" &&
        done.at("done").at("docs_completed").as_number() ==
            static_cast<double>(docs);
  } catch (const std::exception& e) {
    std::cerr << "job (" << tenant << "): " << e.what() << "\n";
  }
  return out;
}

/// Scrapes one counter value off /metrics (0.0 when absent).
double scrape_counter(const std::string& host, std::uint16_t port,
                      const std::string& family) {
  try {
    net::Fd fd = net::connect_blocking(host, port);
    send_all(fd.get(), "GET /metrics HTTP/1.1\r\nHost: " + host +
                           "\r\nConnection: close\r\n\r\n");
    const std::string raw = read_to_eof(fd.get());
    std::size_t pos = 0;
    while ((pos = raw.find(family, pos)) != std::string::npos) {
      // Must be at line start ("# HELP family ..." lines also match).
      const bool line_start = pos == 0 || raw[pos - 1] == '\n';
      const std::size_t eol = raw.find('\n', pos);
      const std::string line =
          raw.substr(pos, eol == std::string::npos ? eol : eol - pos);
      pos = eol == std::string::npos ? raw.size() : eol;
      if (line_start && line.rfind(family + " ", 0) == 0) {
        return std::atof(line.c_str() + family.size() + 1);
      }
    }
  } catch (const std::exception&) {
  }
  return 0.0;
}

/// The slow-reader scenario (needs the in-process service for the
/// resident-work assertions): a client with a 4 KiB receive buffer posts
/// a large job and stalls. The job must park at the write high watermark
/// and resume to completion once the client drains.
util::Json slow_client_scenario(serve::ParseService& service,
                                const serve::http::HttpServer& server,
                                bool& ok) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int rcvbuf = 4096;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  send_all(fd, post_parse("127.0.0.1",
                          spec_body("stall", 600, 0xBEEF, false)));

  bool parked = false;
  for (int i = 0; i < 20000 && !parked; ++i) {
    parked = service.parked_jobs() == 1;
    std::this_thread::sleep_for(1ms);
  }
  std::size_t resident_max = 0;
  for (int i = 0; i < 300; ++i) {  // stalled: sample the watermark charge
    resident_max = std::max(resident_max, service.resident_documents());
    std::this_thread::sleep_for(1ms);
  }
  const std::size_t watermark = serve::ServiceConfig{}.max_resident_documents;
  const bool bounded = resident_max <= watermark;

  const std::string raw = read_to_eof(fd);  // drain: the job must resume
  ::close(fd);
  const auto lines =
      split_lines(dechunk(raw.substr(raw.find("\r\n\r\n") + 4)));
  const bool finished =
      !lines.empty() &&
      lines.back().find("\"state\":\"completed\"") != std::string::npos &&
      lines.size() == 600 + 2;
  const double pauses = scrape_counter(
      "127.0.0.1", server.port(), "adaparse_http_backpressure_pauses_total");

  ok = parked && bounded && finished && pauses >= 1.0;
  std::cout << "slow client: parked=" << (parked ? "yes" : "NO")
            << " resident_max=" << resident_max << "/" << watermark
            << " backpressure_pauses=" << pauses
            << " resumed_to_completion=" << (finished ? "yes" : "NO")
            << "\n";

  util::JsonObject out;
  out["ran"] = true;
  out["parked"] = parked;
  out["resident_max"] = resident_max;
  out["resident_watermark"] = watermark;
  out["bounded"] = bounded;
  out["backpressure_pauses"] = pauses;
  out["resumed_to_completion"] = finished;
  return util::Json(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  util::Stopwatch total;
  bool smoke = false;
  std::string target_host;
  std::uint16_t target_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (const auto colon = arg.find(':');
               colon != std::string::npos) {
      target_host = arg.substr(0, colon);
      target_port = static_cast<std::uint16_t>(
          std::atoi(arg.c_str() + colon + 1));
    } else {
      std::cerr << "usage: bench_http [--smoke] [host:port]\n";
      return 2;
    }
  }
  const bool external = !target_host.empty();

  std::size_t docs_per_job = smoke ? 10 : 25;
  if (const char* env_docs = std::getenv("ADAPARSE_HTTP_DOCS")) {
    docs_per_job = std::max(1, std::atoi(env_docs));
  }
  const std::size_t num_jobs =
      smoke ? 6
            : std::max<std::size_t>(9, bench::env().eval_docs / docs_per_job);
  std::cout << "== /v1 HTTP front end, open-loop workload (" << num_jobs
            << " jobs x " << docs_per_job << " docs"
            << (external ? ", external " + target_host : "")
            << (smoke ? ", smoke" : "") << ") ==\n";

  // In-process server unless an external target was given.
  std::unique_ptr<serve::ParseService> service;
  std::unique_ptr<serve::http::HttpServer> server;
  if (!external) {
    serve::ServiceConfig config;
    config.dispatchers = 2;
    config.slice_batches = 1;
    service = std::make_unique<serve::ParseService>(
        config, nullptr, std::make_shared<core::Cls2Improver>());
    service->set_tenant_weight("alpha", 2.0);
    server = std::make_unique<serve::http::HttpServer>(*service);
    target_host = "127.0.0.1";
    target_port = server->port();
  }

  // Poisson arrival schedule, precomputed (open loop: arrivals don't
  // slacken when the service falls behind).
  struct Arrival {
    double at_seconds;
    const char* tenant;
    std::uint64_t seed;
  };
  std::vector<Arrival> arrivals;
  util::Rng rng(0x477B);
  const char* tenants[] = {"alpha", "beta", "gamma"};
  const double mean_interarrival = 0.010;  // seconds, per tenant
  for (std::size_t t = 0; t < 3; ++t) {
    double at = 0.0;
    for (std::size_t j = 0; j < num_jobs / 3 + (t < num_jobs % 3 ? 1 : 0);
         ++j) {
      at += rng.exponential(1.0 / mean_interarrival);
      // 32-bit seeds: JSON integers live in double mantissa range, and
      // the spec parser rejects anything above it.
      arrivals.push_back({at, tenants[t], rng.next_u64() & 0xFFFFFFFFu});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return a.at_seconds < b.at_seconds;
            });

  std::mutex outcomes_mutex;
  std::vector<JobOutcome> outcomes;
  std::vector<std::thread> clients;
  clients.reserve(arrivals.size());
  const auto start = std::chrono::steady_clock::now();
  for (const Arrival& arrival : arrivals) {
    std::this_thread::sleep_until(
        start + std::chrono::duration<double>(arrival.at_seconds));
    clients.emplace_back([&, arrival] {
      JobOutcome outcome = run_job(target_host, target_port, arrival.tenant,
                                   docs_per_job, arrival.seed);
      std::lock_guard<std::mutex> lock(outcomes_mutex);
      outcomes.push_back(std::move(outcome));
    });
  }
  for (auto& client : clients) client.join();
  const double wall = total.seconds();

  // ---- score ----
  // Latency samples come from completed jobs only: a job that failed
  // (say, a refused connect) ends in near-zero time and would pull the
  // percentiles down. Failures are counted separately.
  std::map<std::string, std::vector<double>> by_tenant;
  std::vector<double> latencies;
  std::size_t completed = 0, records = 0;
  for (const JobOutcome& o : outcomes) {
    records += o.records;
    std::vector<double>& tenant_latencies = by_tenant[o.tenant];
    if (!o.completed) continue;
    ++completed;
    latencies.push_back(o.latency_seconds);
    tenant_latencies.push_back(o.latency_seconds);
  }
  const std::size_t failed = outcomes.size() - completed;
  std::sort(latencies.begin(), latencies.end());

  util::Table table(
      {"Tenant", "completed", "p50 (ms)", "p95 (ms)", "p99 (ms)"});
  util::JsonObject tenants_obj;
  for (auto& [tenant, values] : by_tenant) {
    std::sort(values.begin(), values.end());
    table.row()
        .add(tenant)
        .add(values.size())
        .add(percentile(values, 0.50) * 1e3, 1)
        .add(percentile(values, 0.95) * 1e3, 1)
        .add(percentile(values, 0.99) * 1e3, 1);
    util::JsonObject entry;
    entry["completed"] = values.size();
    entry["latency_p50_seconds"] = percentile(values, 0.50);
    entry["latency_p95_seconds"] = percentile(values, 0.95);
    entry["latency_p99_seconds"] = percentile(values, 0.99);
    tenants_obj[tenant] = util::Json(std::move(entry));
  }
  table.print(std::cout);

  // ---- slow-client scenario + clean-drain gate ----
  bool slow_ok = true;
  util::Json slow_client = [&] {
    if (external) {
      util::JsonObject out;
      out["ran"] = false;
      return util::Json(std::move(out));
    }
    return slow_client_scenario(*service, *server, slow_ok);
  }();

  bool clean = completed == outcomes.size();
  if (!external) {
    service->drain();
    clean = clean && service->queued_jobs() == 0 &&
            service->running_jobs() == 0 &&
            service->resident_documents() == 0 &&
            service->parked_jobs() == 0 && slow_ok;
  } else {
    // External target: the scrape itself is the liveness check.
    clean = clean && scrape_counter(target_host, target_port,
                                    "adaparse_http_connections_total") >=
                         static_cast<double>(num_jobs);
  }

  std::cout << "jobs: " << outcomes.size() << " submitted, " << completed
            << " completed, " << failed << " failed, " << records
            << " records streamed; p50 "
            << util::format_fixed(percentile(latencies, 0.50) * 1e3, 1)
            << " ms, p95 "
            << util::format_fixed(percentile(latencies, 0.95) * 1e3, 1)
            << " ms; clean drain: " << (clean ? "yes" : "NO") << "; wall "
            << util::format_fixed(wall, 2) << " s\n";

  util::JsonObject out;
  out["bench"] = "http";
  out["smoke"] = smoke;
  out["external_target"] = external;
  out["jobs"] = outcomes.size();
  out["docs_per_job"] = docs_per_job;
  out["completed"] = completed;
  out["failed"] = failed;
  out["records_streamed"] = records;
  util::JsonObject latency;
  latency["p50_seconds"] = percentile(latencies, 0.50);
  latency["p95_seconds"] = percentile(latencies, 0.95);
  latency["p99_seconds"] = percentile(latencies, 0.99);
  out["latency"] = util::Json(std::move(latency));
  out["tenants"] = util::Json(std::move(tenants_obj));
  out["slow_client"] = std::move(slow_client);
  out["clean_drain"] = clean;
  out["wall_seconds"] = wall;
  {
    std::ofstream json_file("BENCH_http.json");
    json_file << util::Json(std::move(out)).dump() << '\n';
  }
  std::cout << "wrote BENCH_http.json; total wall time: "
            << util::format_fixed(total.seconds(), 1) << " s\n";

  if (server) server->stop();
  if (service) service->shutdown();
  return clean ? 0 : 1;
}
