#include "serve/http/server.hpp"

#include <fcntl.h>
#include <limits.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/http/wire.hpp"
#include "serve/job_spec.hpp"

namespace adaparse::serve::http {

namespace {

/// Unparsed request bytes tolerated while a stream occupies the
/// connection; beyond this the server stops reading (TCP flow control
/// pushes back) instead of buffering a pipelined flood.
constexpr std::size_t kPipelinedBufferCap = 64 * 1024;

/// Status-history cap for /v1/jobs/{id} (terminal jobs evicted oldest
/// first past this).
constexpr std::size_t kJobHistoryCap = 4096;

constexpr std::string_view kJobsPrefix = "/v1/jobs/";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

HttpServer::HttpServer(ParseService& service, HttpServerConfig config)
    : service_(service),
      config_(config),
      listener_(config.address, config.port),
      connections_total_(registry_.counter(
          "adaparse_http_connections_total", "Connections accepted")),
      connections_shed_(registry_.counter(
          "adaparse_http_connections_shed_total",
          "Connections closed at accept (max_connections exceeded)")),
      connections_open_(registry_.gauge("adaparse_http_connections_open",
                                        "Connections currently open")),
      bytes_received_(registry_.counter("adaparse_http_bytes_received_total",
                                        "Request bytes read")),
      bytes_sent_(registry_.counter("adaparse_http_bytes_sent_total",
                                    "Response bytes written")),
      backpressure_pauses_(registry_.counter(
          "adaparse_http_backpressure_pauses_total",
          "Times a slow connection paused its job's scheduling")),
      disconnect_cancels_(registry_.counter(
          "adaparse_http_disconnect_cancels_total",
          "Jobs cancelled because their connection dropped mid-stream")),
      request_latency_(registry_.quantile(
          "adaparse_http_request_latency_seconds",
          "Request latency in seconds (streams: to last byte queued)",
          {0.5, 0.95, 0.99})) {
  if (config_.write_low_watermark >= config_.write_high_watermark) {
    config_.write_low_watermark = config_.write_high_watermark / 4;
  }
  registry_.declare("adaparse_http_requests_total",
                    "HTTP requests by route and status",
                    obs::Registry::Kind::kCounter);
  wake_token_->loop = &loop_;
  if (!config_.shard_root.empty()) {
    // Canonicalize once: every wire shard path must resolve strictly
    // inside this directory. A root that does not resolve is a config
    // error, surfaced before any thread starts.
    char resolved[PATH_MAX];
    if (::realpath(config_.shard_root.c_str(), resolved) == nullptr) {
      throw std::runtime_error("http: shard_root does not resolve: " +
                               config_.shard_root);
    }
    shard_root_ = resolved;
    if (shard_root_ == "/") {
      throw std::runtime_error("http: shard_root must not be /");
    }
    shard_thread_ = std::thread([this] { shard_loader_loop(); });
  }
  loop_.add(listener_.fd(), net::EventLoop::kReadable,
            [this](std::uint32_t) { on_accept(); });
  thread_ = std::thread(
      [this] { loop_.run(config_.idle_poll, [this] { tick(); }); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  // Serialized: a concurrent caller waits here until the winner has
  // joined, then sees stopped_ and returns — two threads never race a
  // join on the same std::thread.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(shard_mutex_);
    shard_stop_ = true;
  }
  shard_cv_.notify_all();
  if (shard_thread_.joinable()) shard_thread_.join();
  loop_.post([this] { shutdown_on_loop(); });
  loop_.stop();
  thread_.join();
  // A dispatcher may still hold a copy of a job's notify hook taken just
  // before shutdown_on_loop cleared it; invalidating the token here (the
  // loop object is still alive, and is destroyed only after stop()
  // returns) turns any late call into a no-op instead of a use-after-free.
  std::lock_guard<std::mutex> lock(wake_token_->mutex);
  wake_token_->loop = nullptr;
}

void HttpServer::shutdown_on_loop() {
  loop_.remove(listener_.fd());
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) close_connection(fd, /*disconnected=*/false);
}

void HttpServer::on_accept() {
  for (;;) {
    net::Fd socket = listener_.accept_nonblocking();
    if (!socket.valid()) return;
    if (conns_.size() >= config_.max_connections) {
      connections_shed_.add(1);
      continue;  // socket closes on scope exit — connection shedding
    }
    connections_total_.add(1);
    const int fd = socket.get();
    auto conn = std::make_unique<Connection>(std::move(socket));
    conn->serial = next_serial_++;
    conn->parser = net::http::RequestParser(config_.limits);
    conn->interest = net::EventLoop::kReadable;
    loop_.add(fd, net::EventLoop::kReadable,
              [this, fd](std::uint32_t events) { on_event(fd, events); });
    conns_.emplace(fd, std::move(conn));
    open_count_.store(conns_.size(), std::memory_order_relaxed);
    connections_open_.set(conns_.size());
  }
}

void HttpServer::close_connection(int fd, bool disconnected) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (conn.job) {
    conn.job->set_notify(nullptr);
    if (!job_state_terminal(conn.job->state())) {
      conn.job->cancel();
      if (disconnected) disconnect_cancels_.add(1);
    }
    // Unpark so the dispatchers observe the cancel promptly.
    if (conn.job_paused) service_.set_job_paused(conn.job, false);
    conn.job.reset();
  }
  loop_.remove(fd);
  // Publish the new count before erase() closes the fd: a peer that sees
  // its socket close must also see the connection gone from the count.
  open_count_.store(conns_.size() - 1, std::memory_order_relaxed);
  connections_open_.set(conns_.size() - 1);
  conns_.erase(it);
}

void HttpServer::on_event(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();

  if (events & net::EventLoop::kError) {
    close_connection(fd, /*disconnected=*/true);
    return;
  }

  if (events & net::EventLoop::kReadable) {
    char buf[16384];
    for (;;) {
      const net::IoResult r = net::read_some(fd, buf, sizeof(buf));
      if (r.status == net::IoStatus::kOk) {
        bytes_received_.add(r.bytes);
        conn->inbuf.append(buf, r.bytes);
        // Park the read whenever either buffer is saturated — not just
        // during a stream: a client pipelining requests while never
        // reading responses must hit TCP flow control, not grow outbuf.
        if (conn->inbuf.size() > kPipelinedBufferCap ||
            conn->outbuf.size() >= config_.write_high_watermark) {
          break;
        }
        continue;
      }
      if (r.status == net::IoStatus::kWouldBlock) break;
      if (r.status == net::IoStatus::kEof) {
        conn->read_eof = true;
        break;
      }
      close_connection(fd, /*disconnected=*/true);
      return;
    }
    if (conn->read_eof && (conn->job || conn->shard_pending)) {
      // The peer is gone mid-stream (a half-close from a client that
      // still wants the body is indistinguishable and unsupported):
      // cancel the job rather than parse for nobody. A pending shard
      // load is likewise abandoned (its completion sees a new serial).
      close_connection(fd, /*disconnected=*/true);
      return;
    }
    process_input(*conn);
    if (conns_.find(fd) == conns_.end()) return;
    if (conn->read_eof) {
      if (conn->outbuf.empty()) {
        close_connection(fd, /*disconnected=*/false);
        return;
      }
      conn->want_close = true;  // flush the tail, then close
    }
  }

  flush(*conn);
}

void HttpServer::process_input(Connection& conn) {
  // A streamed response (or an in-flight shard load) owns the connection
  // until it completes; any pipelined requests wait in inbuf (bounded by
  // kPipelinedBufferCap). Dispatching also pauses at the write high
  // watermark so a client that never reads cannot amplify tiny requests
  // into unbounded buffered responses — flush() resumes under the low
  // watermark.
  while (!conn.job && !conn.shard_pending && !conn.want_close &&
         !conn.inbuf.empty() &&
         conn.outbuf.size() < config_.write_high_watermark) {
    std::size_t consumed = 0;
    const net::http::ParseStatus status =
        conn.parser.consume(conn.inbuf, &consumed);
    conn.inbuf.erase(0, consumed);
    if (status == net::http::ParseStatus::kNeedMore) return;
    if (status == net::http::ParseStatus::kError) {
      const net::http::ParseError& err = conn.parser.error();
      conn.request_start = std::chrono::steady_clock::now();
      // Framing is unknown after a parse error; the connection cannot
      // be reused.
      send_error(conn, "(malformed)", err.status, "bad_request",
                 err.message, /*keep_alive=*/false);
      return;
    }
    net::http::Request request = std::move(conn.parser.request());
    conn.parser.reset();
    dispatch(conn, std::move(request));
  }
}

void HttpServer::dispatch(Connection& conn, net::http::Request request) {
  conn.request_start = std::chrono::steady_clock::now();
  const std::string_view path = request.path();
  if (path == "/v1/parse") {
    if (request.method != "POST") {
      send_error(conn, "/v1/parse", 405, "method_not_allowed",
                 "use POST /v1/parse", request.keep_alive);
      return;
    }
    handle_parse(conn, request);
  } else if (path.rfind(kJobsPrefix, 0) == 0) {
    handle_job(conn, request);
  } else if (path == "/metrics") {
    handle_metrics(conn, request);
  } else {
    send_error(conn, "(other)", 404, "not_found",
               "unknown resource: " + std::string(path),
               request.keep_alive);
  }
}

void HttpServer::handle_parse(Connection& conn,
                              const net::http::Request& request) {
  util::Json body;
  try {
    body = util::Json::parse(request.body);
  } catch (const std::exception&) {
    send_error(conn, "/v1/parse", 400, "bad_json",
               "request body is not valid JSON", request.keep_alive);
    return;
  }
  JobSpec spec;
  try {
    spec = JobSpec::from_json(body);
  } catch (const SpecError& e) {
    send_error(conn, "/v1/parse", 400, "invalid_spec", e.what(),
               request.keep_alive);
    return;
  }
  if (spec.documents == JobSpec::Documents::kNone) {
    send_error(conn, "/v1/parse", 400, "invalid_spec",
               "documents: required on the wire", request.keep_alive);
    return;
  }
  if (spec.documents == JobSpec::Documents::kShardFile) {
    // Never let the wire name arbitrary server paths, and never read a
    // file on the event-loop thread (a slow disk — or a FIFO swapped in
    // behind the path — would stall every connection): without a
    // configured shard root the section is refused outright; with one,
    // the load runs confined on shard_thread_ and completes back here.
    if (shard_root_.empty()) {
      send_error(conn, "/v1/parse", 403, "shard_file_forbidden",
                 "documents.shard_file is not enabled on this server",
                 request.keep_alive);
      return;
    }
    conn.shard_pending = true;
    ShardLoad load;
    load.fd = conn.fd.get();
    load.serial = conn.serial;
    load.spec = std::move(spec);
    load.keep_alive = request.keep_alive;
    load.chunked = request.version_minor >= 1;
    {
      std::lock_guard<std::mutex> lock(shard_mutex_);
      shard_queue_.push_back(std::move(load));
    }
    shard_cv_.notify_one();
    return;
  }
  // Chunked framing needs HTTP/1.1; a 1.0 client gets the same stream
  // delimited by connection close instead.
  start_parse_job(conn, std::move(spec), nullptr, request.keep_alive,
                  /*chunked=*/request.version_minor >= 1);
}

void HttpServer::start_parse_job(
    Connection& conn, JobSpec spec,
    std::unique_ptr<core::DocumentSource> source, bool keep_alive,
    bool chunked) {
  JobRequest job_request;
  job_request.spec = std::move(spec);
  job_request.source = std::move(source);
  JobHandle job = service_.submit(std::move(job_request));
  if (job->state() == JobState::kRejected) {
    const RejectStatus rs = classify_reject(job->error());
    send_error(conn, "/v1/parse", rs.http_status, rs.code, job->error(),
               keep_alive);
    return;
  }
  jobs_.emplace(job->id(), job);
  trim_jobs();
  begin_stream(conn, std::move(job), keep_alive, chunked);
}

void HttpServer::shard_loader_loop() {
  for (;;) {
    ShardLoad load;
    {
      std::unique_lock<std::mutex> lock(shard_mutex_);
      shard_cv_.wait(lock, [this] {
        return shard_stop_ || !shard_queue_.empty();
      });
      // Queued loads die with their connections at shutdown.
      if (shard_stop_) return;
      load = std::move(shard_queue_.front());
      shard_queue_.pop_front();
    }
    int status = 0;
    std::string code;
    std::string message;
    std::string blob;
    std::unique_ptr<core::DocumentSource> source;
    if (load_shard_blob(load.spec.shard_file, &blob, &status, &code,
                        &message)) {
      try {
        source = std::make_unique<core::ShardSource>(blob);
      } catch (const std::exception& e) {
        status = 400;
        code = "shard_malformed";
        message = std::string("documents.shard_file: ") + e.what();
      }
    }
    // shared_ptr detour: loop_.post takes a copyable std::function.
    auto shared_source =
        std::make_shared<std::unique_ptr<core::DocumentSource>>(
            std::move(source));
    loop_.post([this, load = std::move(load), shared_source, status,
                code = std::move(code), message = std::move(message)] {
      finish_shard_load(load, std::move(*shared_source), status, code,
                        message);
    });
  }
}

bool HttpServer::load_shard_blob(const std::string& name, std::string* blob,
                                 int* status, std::string* code,
                                 std::string* message) const {
  const auto reject = [&](int s, const char* c, const char* m) {
    *status = s;
    *code = c;
    *message = m;
    return false;
  };
  if (name.empty() || name.front() == '/') {
    return reject(400, "shard_unavailable",
                  "documents.shard_file: must be a relative path");
  }
  for (const char ch : name) {
    if (static_cast<unsigned char>(ch) < 0x20) {
      return reject(400, "shard_unavailable",
                    "documents.shard_file: contains control characters");
    }
  }
  // realpath resolves symlinks and dot segments, so a "../" (or a
  // symlink pointing outside) cannot escape the root.
  char resolved[PATH_MAX];
  const std::string candidate = shard_root_ + "/" + name;
  if (::realpath(candidate.c_str(), resolved) == nullptr) {
    return reject(404, "shard_unavailable",
                  "documents.shard_file: no such shard");
  }
  const std::string real(resolved);
  if (real.size() <= shard_root_.size() ||
      real.compare(0, shard_root_.size(), shard_root_) != 0 ||
      real[shard_root_.size()] != '/') {
    return reject(400, "shard_unavailable",
                  "documents.shard_file: outside the shard root");
  }
  // fstat AFTER open: the type/size checks and the read see the same
  // inode, so nothing swapped in between can bypass them.
  const int fd = ::open(real.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) {
    return reject(404, "shard_unavailable",
                  "documents.shard_file: cannot open shard");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return reject(400, "shard_unavailable",
                  "documents.shard_file: not a regular file");
  }
  if (static_cast<std::uint64_t>(st.st_size) > config_.max_shard_bytes) {
    ::close(fd);
    return reject(413, "shard_too_large",
                  "documents.shard_file: exceeds max_shard_bytes");
  }
  blob->resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < blob->size()) {
    const ssize_t n = ::read(fd, blob->data() + off, blob->size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // truncated beneath us: the codec will reject it
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  blob->resize(off);
  return true;
}

void HttpServer::finish_shard_load(
    ShardLoad load, std::unique_ptr<core::DocumentSource> source,
    int error_status, const std::string& error_code,
    const std::string& error_message) {
  const auto it = conns_.find(load.fd);
  if (it == conns_.end() || it->second->serial != load.serial) {
    return;  // connection closed (or fd recycled) while we were reading
  }
  Connection& conn = *it->second;
  conn.shard_pending = false;
  if (!source) {
    send_error(conn, "/v1/parse", error_status, error_code, error_message,
               load.keep_alive);
  } else {
    start_parse_job(conn, std::move(load.spec), std::move(source),
                    load.keep_alive, load.chunked);
  }
  flush(conn);  // may close the connection
}

void HttpServer::handle_job(Connection& conn,
                            const net::http::Request& request) {
  const char* route = "/v1/jobs/{id}";
  const std::string_view id_part = request.path().substr(kJobsPrefix.size());
  std::uint64_t id = 0;
  bool numeric = !id_part.empty() && id_part.size() <= 18;
  for (const char c : id_part) {
    if (c < '0' || c > '9') {
      numeric = false;
      break;
    }
  }
  if (numeric) {
    for (const char c : id_part) {
      id = id * 10 + static_cast<std::uint64_t>(c - '0');
    }
  }
  const auto it = numeric ? jobs_.find(id) : jobs_.end();
  if (it == jobs_.end()) {
    send_error(conn, route, 404, "not_found",
               "no such job: " + std::string(id_part), request.keep_alive);
    return;
  }
  const JobHandle& job = it->second;
  if (request.method == "GET") {
    send_response(conn, route, 200, "application/json",
                  job_status_json(job->id(), job->tenant(), job->progress(),
                                  job->error())
                          .dump() +
                      "\n",
                  request.keep_alive);
  } else if (request.method == "DELETE") {
    job->cancel();
    send_response(conn, route, 202, "application/json",
                  job_status_json(job->id(), job->tenant(), job->progress(),
                                  job->error())
                          .dump() +
                      "\n",
                  request.keep_alive);
  } else {
    send_error(conn, route, 405, "method_not_allowed",
               "use GET or DELETE", request.keep_alive);
  }
}

void HttpServer::handle_metrics(Connection& conn,
                                const net::http::Request& request) {
  if (request.method != "GET") {
    send_error(conn, "/metrics", 405, "method_not_allowed",
               "use GET /metrics", request.keep_alive);
    return;
  }
  std::string body = service_.metrics_text();
  body += registry_.render_prometheus();
  send_response(conn, "/metrics", 200,
                "text/plain; version=0.0.4; charset=utf-8",
                std::move(body), request.keep_alive);
}

void HttpServer::begin_stream(Connection& conn, JobHandle job,
                              bool keep_alive, bool chunked) {
  conn.job = std::move(job);
  conn.stream_chunked = chunked;
  conn.stream_keep_alive = keep_alive && chunked;
  std::vector<std::pair<std::string, std::string>> headers = {
      {"Content-Type", "application/x-ndjson"},
      {"X-Adaparse-Job-Id", std::to_string(conn.job->id())},
  };
  if (chunked) {
    headers.emplace_back("Transfer-Encoding", "chunked");
  }
  if (!conn.stream_keep_alive) headers.emplace_back("Connection", "close");
  conn.outbuf += net::http::response_head(200, headers);

  const JobProgress progress = conn.job->progress();
  append_stream_payload(
      conn, stream_created_line(conn.job->id(), conn.job->tenant(),
                                progress.docs_total_hint)
                    .dump() +
                "\n");
  // Dispatcher threads wake the loop as records land; wake() is
  // thread-safe and coalescing, so this is cheap per record. The hook
  // goes through the weak wake token (invalidated in stop() after the
  // loop thread joins) so a copy that outlives the server is a no-op,
  // not a use-after-free.
  std::weak_ptr<WakeToken> token = wake_token_;
  conn.job->set_notify([token] {
    const std::shared_ptr<WakeToken> t = token.lock();
    if (!t) return;
    std::lock_guard<std::mutex> lock(t->mutex);
    if (t->loop) t->loop->wake();
  });
  pump_stream(conn);
}

void HttpServer::append_stream_payload(Connection& conn,
                                       const std::string& payload) {
  if (payload.empty()) return;
  if (conn.stream_chunked) {
    conn.outbuf += net::http::chunk(payload);
  } else {
    conn.outbuf += payload;
  }
}

void HttpServer::pump_stream(Connection& conn) {
  if (!conn.job) return;
  for (;;) {
    if (conn.outbuf.size() >= config_.write_high_watermark) {
      // Slow reader: park the job's slice scheduling instead of buffering
      // records nobody is consuming. Resumes in flush() under the low
      // watermark.
      if (!conn.job_paused && !job_state_terminal(conn.job->state())) {
        service_.set_job_paused(conn.job, true);
        conn.job_paused = true;
        backpressure_pauses_.add(1);
      }
      return;
    }
    // Read terminal-ness BEFORE draining: once terminal, no producer
    // remains, so a drain that follows the check cannot miss records.
    const bool terminal = job_state_terminal(conn.job->state());
    const std::vector<JobRecord> records = conn.job->take_results();
    if (!records.empty()) {
      std::string payload;
      for (const JobRecord& record : records) {
        payload += stream_record_line(record).dump();
        payload += '\n';
      }
      append_stream_payload(conn, payload);
      continue;  // re-check the watermark before draining more
    }
    if (terminal) {
      const JobProgress progress = conn.job->progress();
      append_stream_payload(conn,
                            stream_done_line(progress.state,
                                             progress.docs_completed,
                                             conn.job->error())
                                    .dump() +
                                "\n");
      if (conn.stream_chunked) conn.outbuf += net::http::kLastChunk;
      end_stream(conn);
    }
    return;
  }
}

void HttpServer::end_stream(Connection& conn) {
  count_request("/v1/parse", 200);
  request_latency_.observe(seconds_since(conn.request_start));
  conn.job->set_notify(nullptr);
  if (conn.job_paused) {
    service_.set_job_paused(conn.job, false);
    conn.job_paused = false;
  }
  conn.job.reset();
  if (!conn.stream_keep_alive) {
    conn.want_close = true;
  } else if (!conn.inbuf.empty()) {
    process_input(conn);  // pipelined requests parked during the stream
  }
}

void HttpServer::send_response(Connection& conn, const char* route,
                               int status, const std::string& content_type,
                               std::string body, bool keep_alive) {
  std::vector<std::pair<std::string, std::string>> headers = {
      {"Content-Type", content_type},
      {"Content-Length", std::to_string(body.size())},
  };
  if (!keep_alive) headers.emplace_back("Connection", "close");
  conn.outbuf += net::http::response_head(status, headers);
  conn.outbuf += body;
  if (!keep_alive) conn.want_close = true;
  count_request(route, status);
  request_latency_.observe(seconds_since(conn.request_start));
}

void HttpServer::send_error(Connection& conn, const char* route, int status,
                            const std::string& code,
                            const std::string& message, bool keep_alive) {
  send_response(conn, route, status, "application/json",
                error_envelope(code, message).dump() + "\n", keep_alive);
}

void HttpServer::flush(Connection& conn) {
  const int fd = conn.fd.get();
  while (!conn.outbuf.empty()) {
    const net::IoResult r = net::write_some(fd, conn.outbuf);
    if (r.status == net::IoStatus::kOk) {
      bytes_sent_.add(r.bytes);
      conn.outbuf.erase(0, r.bytes);
      continue;
    }
    if (r.status == net::IoStatus::kWouldBlock) break;
    close_connection(fd, /*disconnected=*/true);
    return;
  }
  if (conn.job && conn.job_paused &&
      conn.outbuf.size() < config_.write_low_watermark) {
    // The slow reader caught up; resume the job and top the buffer up.
    service_.set_job_paused(conn.job, false);
    conn.job_paused = false;
    pump_stream(conn);
  }
  if (!conn.job && !conn.shard_pending && !conn.inbuf.empty() &&
      conn.outbuf.size() < config_.write_low_watermark) {
    // Pipelined requests parked at the write high watermark resume once
    // the client has drained its responses.
    process_input(conn);
  }
  if (conn.outbuf.empty() && conn.want_close && !conn.job) {
    close_connection(fd, /*disconnected=*/false);
    return;
  }
  update_interest(conn);
}

void HttpServer::update_interest(Connection& conn) {
  std::uint32_t want = 0;
  const bool read_parked =
      conn.inbuf.size() > kPipelinedBufferCap ||
      conn.outbuf.size() >= config_.write_high_watermark;
  if (!conn.read_eof && !read_parked) want |= net::EventLoop::kReadable;
  if (!conn.outbuf.empty()) want |= net::EventLoop::kWritable;
  if (want != conn.interest) {
    loop_.set_interest(conn.fd.get(), want);
    conn.interest = want;
  }
}

void HttpServer::tick() {
  // Streamed responses make progress here: the notify hook only wakes the
  // loop, and this pass moves whatever landed into the write buffers.
  std::vector<int> streaming;
  for (const auto& [fd, conn] : conns_) {
    if (conn->job || !conn->outbuf.empty()) streaming.push_back(fd);
  }
  for (const int fd : streaming) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    pump_stream(*it->second);
    flush(*it->second);  // may close the connection
  }
}

void HttpServer::count_request(const char* route, int status) {
  registry_
      .counter("adaparse_http_requests_total",
               "HTTP requests by route and status",
               {{"route", route}, {"status", std::to_string(status)}})
      .add(1);
}

void HttpServer::trim_jobs() {
  if (jobs_.size() <= kJobHistoryCap) return;
  for (auto it = jobs_.begin();
       it != jobs_.end() && jobs_.size() > kJobHistoryCap;) {
    if (job_state_terminal(it->second->state())) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace adaparse::serve::http
