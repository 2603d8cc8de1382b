// http-generator: three tenants POST FT-variant generator specs to an
// in-process /v1 server over loopback, open loop at a fixed Poisson rate
// below saturation. Each job's documents are generated inside the service
// on its prefetch thread, so the document source, record serialization,
// HTTP chunk framing and the serve scheduler hold the time.
//
// The client is one thread multiplexing at most nproc keep-alive
// connections with poll(). A job is timed from its due time, so a job
// that waits for a free connection is charged the wait.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "core/engine.hpp"
#include "layers.hpp"
#include "net/socket.hpp"
#include "serve/http/server.hpp"
#include "serve/http/wire.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {
using namespace adaparse;

namespace {

/// Offered load: about 1.3 cores of document generation at 13.6 ms per
/// document, a third of what nproc = 4 dispatchers sustain, so queueing
/// stays short and job latency reflects the work of one job.
constexpr double kJobsPerSecond = 12.0;
constexpr std::size_t kDocsPerJob = 8;
/// floor(0.25 * 8) = 2 upgrade slots per job; k = 32 keeps a job in one
/// routing window and one service slice.
constexpr double kAlpha = 0.25;
constexpr std::size_t kBatchSize = 32;
const char* const kTenants[] = {"alpha", "beta", "gamma"};
constexpr double kTenantWeights[] = {2.0, 1.0, 1.0};
/// A job not finished this long after the window gives up the run.
constexpr double kDrainLimitSeconds = 60.0;

/// Incremental reader of one chunked /v1/parse response: splits the body
/// into JSONL lines as bytes arrive.
class StreamReader {
 public:
  enum class Status { kMore, kDone, kError };

  Status feed(std::string_view data,
              const std::function<void(std::string_view)>& on_line) {
    buf_.append(data);
    std::size_t pos = 0;
    Status status = Status::kMore;
    while (status == Status::kMore) {
      if (state_ == State::kHead) {
        const std::size_t end = buf_.find("\r\n\r\n", pos);
        if (end == std::string::npos) break;
        const std::string_view head(buf_.data() + pos, end - pos);
        if (head.rfind("HTTP/1.1 200 ", 0) != 0 ||
            head.find("Transfer-Encoding: chunked") == std::string::npos) {
          status = Status::kError;
          break;
        }
        pos = end + 4;
        state_ = State::kSize;
      } else if (state_ == State::kSize || state_ == State::kTrailer) {
        const std::size_t eol = buf_.find("\r\n", pos);
        if (eol == std::string::npos) break;
        const std::string_view line(buf_.data() + pos, eol - pos);
        pos = eol + 2;
        if (state_ == State::kTrailer) {
          if (line.empty()) status = Status::kDone;
          continue;
        }
        std::size_t size = 0;
        for (const char c : line.substr(0, line.find(';'))) {
          const int digit = c >= '0' && c <= '9'   ? c - '0'
                            : c >= 'a' && c <= 'f' ? c - 'a' + 10
                            : c >= 'A' && c <= 'F' ? c - 'A' + 10
                                                   : -1;
          if (digit < 0 || size > (std::size_t{1} << 40)) {
            status = Status::kError;
            break;
          }
          size = size * 16 + static_cast<std::size_t>(digit);
        }
        left_ = size;
        state_ = size == 0 ? State::kTrailer : State::kData;
      } else if (state_ == State::kData) {
        const std::size_t take = std::min(left_, buf_.size() - pos);
        if (take == 0) break;
        std::string_view chunk(buf_.data() + pos, take);
        for (std::size_t nl; (nl = chunk.find('\n')) != std::string_view::npos;) {
          line_.append(chunk.substr(0, nl));
          on_line(line_);
          line_.clear();
          chunk.remove_prefix(nl + 1);
        }
        line_.append(chunk);
        pos += take;
        left_ -= take;
        if (left_ == 0) state_ = State::kDataEnd;
      } else {  // kDataEnd
        if (buf_.size() - pos < 2) break;
        if (buf_.compare(pos, 2, "\r\n") != 0) {
          status = Status::kError;
          break;
        }
        pos += 2;
        state_ = State::kSize;
      }
    }
    buf_.erase(0, pos);
    if (status != Status::kMore) *this = StreamReader();
    return status;
  }

 private:
  enum class State { kHead, kSize, kData, kDataEnd, kTrailer };
  State state_ = State::kHead;
  std::string buf_;
  std::string line_;
  std::size_t left_ = 0;
};

struct Job {
  Arrival arrival;
  std::string request;
  Clock::time_point due, sent, first_record, done;
  bool started = false, first = false, completed = false;
  std::size_t bytes = 0;
  std::vector<std::string> records;  ///< record lines, kept for the check
  std::string done_line;
};

struct Connection {
  net::Fd fd;
  std::optional<std::size_t> job;
  std::size_t written = 0;
  StreamReader reader;
};

net::Fd open_connection(std::uint16_t port) {
  net::Fd fd = net::connect_blocking("127.0.0.1", port);
  net::set_nonblocking(fd.get());
  net::set_tcp_nodelay(fd.get());
  return fd;
}

std::vector<Job> make_jobs(const std::vector<Arrival>& schedule) {
  std::vector<Job> jobs;
  for (const Arrival& arrival : schedule) {
    Job job;
    job.arrival = arrival;
    job.request = parse_request(spec_body(kTenants[arrival.tenant], "fasttext",
                                          kAlpha, kBatchSize, kDocsPerJob,
                                          arrival.generator_seed));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Whether the finished response is a whole, completed job.
bool job_completed(const Job& job) {
  if (job.records.size() != kDocsPerJob || job.done_line.empty()) return false;
  try {
    const util::Json done = util::Json::parse(job.done_line).at("done");
    return done.at("state").as_string() == "completed" &&
           done.at("docs_completed").as_number() ==
               static_cast<double>(kDocsPerJob);
  } catch (const std::exception&) {
    return false;
  }
}

/// Plays `jobs` against the server on its schedule. Never throws for a
/// failed job: a job that is refused, cut off or incomplete ends with
/// completed == false.
Clock::time_point play(std::vector<Job>& jobs, std::uint16_t port,
                       SpanLog* spans) {
  std::vector<Connection> conns(std::min(nproc(), jobs.size()));
  for (Connection& conn : conns) conn.fd = open_connection(port);
  const auto start = Clock::now();
  for (Job& job : jobs) {
    job.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(job.arrival.due_seconds));
  }
  const auto give_up =
      jobs.back().due + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kDrainLimitSeconds));

  std::size_t next = 0, finished = 0;
  std::deque<std::size_t> backlog;
  const auto finish = [&](Connection& conn, bool ok) {
    Job& job = jobs[*conn.job];
    job.done = Clock::now();
    job.completed = ok && job_completed(job);
    if (spans != nullptr && job.completed) {
      const auto id = spans->add("http.job", 0, job.due, job.done);
      spans->add("http.client_wait", id, job.due, job.sent);
      spans->add("http.first_record", id, job.sent, job.first_record);
      spans->add("http.stream", id, job.first_record, job.done);
    }
    conn.job.reset();
    ++finished;
    if (!ok) conn.fd = open_connection(port);  // the server closed it
  };
  const auto write_pending = [&](Connection& conn) {
    const std::string& request = jobs[*conn.job].request;
    while (conn.written < request.size()) {
      const net::IoResult r = net::write_some(
          conn.fd.get(), std::string_view(request).substr(conn.written));
      if (r.status != net::IoStatus::kOk) {
        if (r.status != net::IoStatus::kWouldBlock) finish(conn, false);
        return;
      }
      conn.written += r.bytes;
    }
  };

  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  char buf[1 << 16];
  while (finished < jobs.size()) {
    auto now = Clock::now();
    if (now > give_up) break;
    while (next < jobs.size() && jobs[next].due <= now) backlog.push_back(next++);
    for (Connection& conn : conns) {
      if (backlog.empty()) break;
      if (conn.job) continue;
      conn.job = backlog.front();
      backlog.pop_front();
      conn.written = 0;
      jobs[*conn.job].sent = now;
      jobs[*conn.job].started = true;
      write_pending(conn);
    }

    fds.clear();
    polled.clear();
    for (Connection& conn : conns) {
      if (!conn.job) continue;
      short events = POLLIN;
      if (conn.written < jobs[*conn.job].request.size()) events |= POLLOUT;
      fds.push_back({conn.fd.get(), events, 0});
      polled.push_back(&conn);
    }
    auto wait = std::chrono::nanoseconds(std::chrono::milliseconds(50));
    if (next < jobs.size()) {
      wait = std::min<std::chrono::nanoseconds>(
          wait, std::max<Clock::duration>(Clock::duration::zero(),
                                          jobs[next].due - now));
    }
    const timespec timeout{
        static_cast<time_t>(wait.count() / 1'000'000'000),
        static_cast<long>(wait.count() % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;

    for (std::size_t f = 0; f < fds.size(); ++f) {
      Connection& conn = *polled[f];
      if (!conn.job) continue;
      if ((fds[f].revents & POLLOUT) != 0) write_pending(conn);
      if (!conn.job || (fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        const net::IoResult r = net::read_some(conn.fd.get(), buf, sizeof(buf));
        if (r.status == net::IoStatus::kWouldBlock) break;
        if (r.status != net::IoStatus::kOk) {
          finish(conn, false);
          break;
        }
        Job& job = jobs[*conn.job];
        job.bytes += r.bytes;
        const auto status = conn.reader.feed(
            std::string_view(buf, r.bytes), [&](std::string_view line) {
              if (line.rfind("{\"index\"", 0) == 0) {
                if (!job.first) {
                  job.first_record = Clock::now();
                  job.first = true;
                }
                job.records.emplace_back(line);
              } else if (line.rfind("{\"done\"", 0) == 0) {
                job.done_line = line;
              }
            });
        if (status == StreamReader::Status::kDone) {
          finish(conn, true);
          break;
        }
        if (status == StreamReader::Status::kError) {
          finish(conn, false);
          break;
        }
      }
    }
  }
  return start;
}

struct LoadResult {
  double docs_per_s = 0.0;
  std::vector<double> latency, first_record, lag;
  std::size_t failed = 0;
  std::size_t bytes = 0, records = 0;
};

LoadResult summarize(const std::vector<Job>& jobs, Clock::time_point start) {
  LoadResult r;
  auto last_done = start;
  for (const Job& job : jobs) {
    if (job.started) r.lag.push_back(seconds_between(job.due, job.sent));
    if (!job.completed) {
      ++r.failed;
      continue;
    }
    r.latency.push_back(seconds_between(job.due, job.done));
    r.first_record.push_back(seconds_between(job.due, job.first_record));
    r.bytes += job.bytes;
    r.records += job.records.size();
    last_done = std::max(last_done, job.done);
  }
  r.docs_per_s = static_cast<double>(r.records) /
                 std::max(1e-9, seconds_between(start, last_done));
  return r;
}

/// The service and its front end, started in set-up.
struct Server {
  std::unique_ptr<serve::ParseService> service;
  std::unique_ptr<serve::http::HttpServer> http;

  explicit Server(std::shared_ptr<const core::Cls2Improver> improver) {
    serve::ServiceConfig config;
    config.dispatchers = nproc();
    config.slice_batches = 1;
    service = std::make_unique<serve::ParseService>(config, nullptr,
                                                    std::move(improver));
    for (std::size_t t = 0; t < std::size(kTenants); ++t) {
      service->set_tenant_weight(kTenants[t], kTenantWeights[t]);
    }
    http = std::make_unique<serve::http::HttpServer>(*service);
  }
  ~Server() {
    http->stop();
    service->shutdown();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
};

/// What a standalone engine run makes of one job's spec.
struct Expected {
  doc::GeneratorConfig generator;
  std::vector<doc::Document> docs;
  core::RunOutput output;
  std::size_t mismatched_lines = 0;
};

/// Re-runs every completed job standalone and compares the streamed record
/// lines byte for byte, on nproc() threads.
std::vector<Expected> check_jobs(const std::vector<Job>& jobs,
                                 const core::TrainedAdaParse& models) {
  std::vector<Expected> expected(jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < nproc(); ++t) {
    workers.emplace_back([&] {
      for (std::size_t j = next++; j < jobs.size(); j = next++) {
        if (!jobs[j].completed) continue;
        const std::string& request = jobs[j].request;
        auto spec = serve::JobSpec::from_json(
            util::Json::parse(request.substr(request.find("\r\n\r\n") + 4)));
        spec.engine.threads = 1;
        Expected& e = expected[j];
        e.generator = spec.generator;
        e.docs = doc::CorpusGenerator(spec.generator).generate();
        e.output = core::AdaParseEngine(spec.engine, nullptr, models.improver)
                       .run(e.docs);
        for (std::size_t i = 0; i < e.docs.size(); ++i) {
          const std::string line =
              serve::http::stream_record_line(
                  serve::JobRecord{i, e.output.records[i], e.output.decisions[i]})
                  .dump();
          if (line != jobs[j].records[i]) ++e.mismatched_lines;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return expected;
}

}  // namespace

void run_http_generator(const Options& options, Report& report) {
  const auto jobs_in_window =
      static_cast<std::size_t>(std::lround(kJobsPerSecond * options.seconds));
  if (!percentile_supported(jobs_in_window, 0.90)) {
    throw std::invalid_argument(
        "http-generator needs --seconds >= " +
        std::to_string(static_cast<int>(std::ceil(100 / kJobsPerSecond))) +
        " for 100 jobs, so p90 has ten samples beyond it");
  }
  const auto schedule =
      open_loop_schedule(options.seed, jobs_in_window, options.seconds,
                         std::size(kTenants));

  std::optional<core::TrainedAdaParse> models;
  std::unique_ptr<Server> server;
  const double setup_s =
      median_setup_seconds(options.trace ? 1 : kSetupReps, [&] {
        server.reset();
        models.reset();
        models = train_models();
        server = std::make_unique<Server>(models->improver);
        // Warm-up: one job per tenant, from a seed stream the window
        // never uses.
        auto warmup = make_jobs(open_loop_schedule(
            derive_seed(options.seed, 3), std::size(kTenants), 0.0,
            std::size(kTenants)));
        play(warmup, server->http->port(), nullptr);
        for (const Job& job : warmup) {
          if (!job.completed) throw std::runtime_error("warm-up job failed");
        }
      });

  std::vector<Job> jobs = make_jobs(schedule);
  reset_peak_rss();
  const LoadResult load =
      summarize(jobs, play(jobs, server->http->port(), nullptr));
  const double rss_mb = peak_rss_mb();
  report.attempted = jobs.size();
  report.failed = load.failed;

  const std::vector<Expected> expected = check_jobs(jobs, *models);
  std::size_t mismatched = 0, docs = 0;
  double gpu_seconds = 0.0;
  std::vector<const doc::Document*> bleu_docs;
  std::vector<const io::ParseRecord*> bleu_records;
  for (const Expected& e : expected) {
    mismatched += e.mismatched_lines;
    docs += e.docs.size();
    gpu_seconds += e.output.stats.nougat_gpu_seconds;
    for (std::size_t i = 0; i < e.docs.size(); ++i) {
      bleu_docs.push_back(&e.docs[i]);
      bleu_records.push_back(&e.output.records[i]);
    }
  }
  if (mismatched > 0) {
    report.fail(std::to_string(mismatched) +
                " streamed records differ from a standalone run() of the "
                "same generator spec");
  }
  if (load.failed > 0) {
    report.fail(std::to_string(load.failed) + " of " +
                std::to_string(jobs.size()) + " jobs did not complete");
  }

  if (!options.trace) {
    report.set("setup_s", setup_s);
    report.set("docs_per_s", load.docs_per_s);
    report.set("latency_p50_s", percentile(load.latency, 0.50));
    report.set("latency_p90_s", percentile(load.latency, 0.90));
    report.set("first_record_p50_s", median(load.first_record));
    report.set("bleu_mean", mean_bleu(bleu_docs, bleu_records));
    report.set("sim_gpu_s_per_doc",
               gpu_seconds / static_cast<double>(std::max<std::size_t>(1, docs)));
    report.set("peak_rss_mb", rss_mb);
    return;
  }

  SpanLog spans;
  std::vector<Job> traced_jobs = make_jobs(schedule);
  const auto traced_start = play(traced_jobs, server->http->port(), &spans);
  report_trace_overhead(load.docs_per_s,
                        summarize(traced_jobs, traced_start).docs_per_s, report);
  report.set("http.response_bytes_per_doc",
             static_cast<double>(load.bytes) /
                 static_cast<double>(std::max<std::size_t>(1, load.records)));
  report.set("http.gen_lag_p90_s", percentile(load.lag, 0.90));
  const serve::MetricsSnapshot metrics = server->service->metrics();
  double wait_sum = 0.0, started = 0.0;
  for (const serve::TenantSnapshot& tenant : metrics.tenants) {
    const double n = static_cast<double>(tenant.jobs_completed);
    wait_sum += tenant.queue_wait_mean_seconds * n;
    started += n;
  }
  report.set("serve.queue_wait_mean_s", wait_sum / std::max(1.0, started));
  report.set("sched.warm_cache_loads",
             static_cast<double>(
                 server->service->warm_cache().stats("nougat").loads));

  std::vector<core::EngineStats> stats;
  ReplayInput replay;
  replay.models = &*models;
  std::vector<std::pair<std::size_t, std::size_t>> index;  // (job, doc)
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Expected& e = expected[j];
    if (e.docs.empty()) continue;
    stats.push_back(e.output.stats);
    ReplayGroup group;
    for (std::size_t i = 0; i < e.docs.size(); ++i) {
      group.docs.push_back(&e.docs[i]);
      index.emplace_back(j, i);
    }
    group.output = &e.output;
    replay.groups.push_back(std::move(group));
  }
  report_engine_stats(stats, report);
  const auto first_spec = [&] {
    const std::string& request = jobs.front().request;
    return serve::JobSpec::from_json(
        util::Json::parse(request.substr(request.find("\r\n\r\n") + 4)));
  }();
  const core::AdaParseEngine engine(first_spec.engine, nullptr, models->improver);
  replay.engine = &engine;
  replay.regenerate = [&](std::size_t i) {
    const auto [j, local] = index.at(i);
    return doc::CorpusGenerator(expected[j].generator).generate_one(local);
  };
  replay.request_bytes = jobs.front().request;
  replay.scratch_dir = fresh_dir(options, "layers");
  replay_layers(replay, spans, report);
  report.not_exercised({"campaign.attempts_per_commit",
                        "campaign.recovery_wall_s"});
  spans.write_chrome_trace(trace_path(options));
}

}  // namespace perfbench
