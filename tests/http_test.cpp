// Tests for the HTTP/1.1 network front end: the incremental request
// parser (torn reads, pipelining, chunked bodies, limit enforcement), the
// frozen /v1 wire schemas (golden serializations + JobState vocabulary),
// JobSpec parsing/validation, and full-stack integration over real
// sockets — streamed records byte-identical to a standalone engine run,
// slow-client backpressure parking the job, and mid-stream disconnects
// cancelling it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "doc/generator.hpp"
#include "io/doc_codec.hpp"
#include "io/fsio.hpp"
#include "net/http.hpp"
#include "serve/http/server.hpp"
#include "serve/http/wire.hpp"
#include "serve/job_spec.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace adaparse {
namespace {

using namespace std::chrono_literals;
using net::http::ParseStatus;
using net::http::RequestParser;

// ============================================================ parser ====

TEST(RequestParserTest, ParsesASimpleGet) {
  RequestParser parser;
  const std::string raw =
      "GET /v1/jobs/7?verbose=1 HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kComplete);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/v1/jobs/7?verbose=1");
  EXPECT_EQ(parser.request().path(), "/v1/jobs/7");
  EXPECT_TRUE(parser.request().keep_alive);
  ASSERT_NE(parser.request().header("host"), nullptr);
  EXPECT_EQ(*parser.request().header("host"), "localhost");
}

TEST(RequestParserTest, SurvivesRequestsTornAtEveryByte) {
  const std::string raw =
      "POST /v1/parse HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "{\"a\":\"b c\"}";
  RequestParser parser;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::size_t consumed = 0;
    const auto status =
        parser.consume(std::string_view(raw).substr(i, 1), &consumed);
    ASSERT_EQ(consumed, 1U) << "byte " << i;
    if (i + 1 < raw.size()) {
      ASSERT_EQ(status, ParseStatus::kNeedMore) << "byte " << i;
    } else {
      ASSERT_EQ(status, ParseStatus::kComplete);
    }
  }
  EXPECT_EQ(parser.request().body, "{\"a\":\"b c\"}");
}

TEST(RequestParserTest, PipelinedRequestsParseBackToBack) {
  const std::string first = "GET /metrics HTTP/1.1\r\n\r\n";
  const std::string second = "DELETE /v1/jobs/3 HTTP/1.1\r\n\r\n";
  const std::string raw = first + second;
  RequestParser parser;
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kComplete);
  EXPECT_EQ(consumed, first.size());  // stops at the message boundary
  EXPECT_EQ(parser.request().method, "GET");
  parser.reset();
  ASSERT_EQ(parser.consume(std::string_view(raw).substr(consumed), &consumed),
            ParseStatus::kComplete);
  EXPECT_EQ(parser.request().method, "DELETE");
  EXPECT_EQ(parser.request().target, "/v1/jobs/3");
}

TEST(RequestParserTest, OversizedRequestLineFailsWith431) {
  net::http::Limits limits;
  limits.max_request_line = 64;
  RequestParser parser(limits);
  const std::string raw =
      "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kError);
  EXPECT_EQ(parser.error().status, 431);
}

TEST(RequestParserTest, OversizedHeaderBlockFailsWith431) {
  net::http::Limits limits;
  limits.max_header_bytes = 128;
  RequestParser parser(limits);
  const std::string raw = "GET / HTTP/1.1\r\nX-Big: " +
                          std::string(200, 'x') + "\r\n\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kError);
  EXPECT_EQ(parser.error().status, 431);
}

TEST(RequestParserTest, TooManyHeaderFieldsFailsWith431) {
  net::http::Limits limits;
  limits.max_headers = 3;
  RequestParser parser(limits);
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 5; ++i) {
    raw += "X-H" + std::to_string(i) + ": v\r\n";
  }
  raw += "\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kError);
  EXPECT_EQ(parser.error().status, 431);
}

TEST(RequestParserTest, ContentLengthOverLimitFailsWith413) {
  net::http::Limits limits;
  limits.max_body_bytes = 1024;
  RequestParser parser(limits);
  const std::string raw =
      "POST /v1/parse HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kError);
  EXPECT_EQ(parser.error().status, 413);
}

TEST(RequestParserTest, ChunkedBodyOverLimitFailsWith413) {
  net::http::Limits limits;
  limits.max_body_bytes = 16;
  RequestParser parser(limits);
  const std::string raw =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "a\r\n0123456789\r\na\r\n0123456789\r\n0\r\n\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kError);
  EXPECT_EQ(parser.error().status, 413);
}

TEST(RequestParserTest, DecodesChunkedBodiesWithExtensionsAndTrailers) {
  const std::string raw =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n"
      "5;note=ext-ignored\r\npedia\r\n"
      "0\r\n"
      "X-Trailer: discarded\r\n"
      "\r\n";
  // Whole-buffer and torn-at-every-byte must agree.
  {
    RequestParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kComplete);
    EXPECT_EQ(parser.request().body, "Wikipedia");
    EXPECT_EQ(parser.request().header("x-trailer"), nullptr);
  }
  {
    RequestParser parser;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      std::size_t consumed = 0;
      const auto status =
          parser.consume(std::string_view(raw).substr(i, 1), &consumed);
      if (i + 1 < raw.size()) {
        ASSERT_EQ(status, ParseStatus::kNeedMore) << "byte " << i;
      } else {
        ASSERT_EQ(status, ParseStatus::kComplete);
      }
    }
    EXPECT_EQ(parser.request().body, "Wikipedia");
  }
}

TEST(RequestParserTest, RejectsSmugglingProneFraming) {
  // Transfer-Encoding + Content-Length together is the classic request
  // smuggling vector — hard 400.
  RequestParser parser;
  const std::string raw =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
      "Content-Length: 4\r\n\r\n";
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kError);
  EXPECT_EQ(parser.error().status, 400);
}

TEST(RequestParserTest, RejectsDuplicateFramingHeaders) {
  // Repeated Content-Length (or Transfer-Encoding) fields — even with
  // identical values — are a smuggling vector behind a proxy that honors
  // the other copy; RFC 9112 requires rejecting the conflicting case and
  // permits rejecting repeats outright.
  const char* cases[] = {
      "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 11\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n",
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
      "Transfer-Encoding: chunked\r\n\r\n",
  };
  for (const char* raw : cases) {
    RequestParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.consume(raw, &consumed), ParseStatus::kError) << raw;
    EXPECT_EQ(parser.error().status, 400) << raw;
  }
}

TEST(RequestParserTest, MapsProtocolErrorsToTheRightStatuses) {
  const struct {
    const char* raw;
    int status;
  } cases[] = {
      {"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 501},
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"GET /\r\n\r\n", 400},                      // missing version
      {"GET relative HTTP/1.1\r\n\r\n", 400},      // not origin-form
      {"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n", 400},  // space in name
      {"POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n", 400},
  };
  for (const auto& c : cases) {
    RequestParser parser;
    std::size_t consumed = 0;
    ASSERT_EQ(parser.consume(c.raw, &consumed), ParseStatus::kError) << c.raw;
    EXPECT_EQ(parser.error().status, c.status) << c.raw;
  }
}

TEST(RequestParserTest, Http10DefaultsToConnectionClose) {
  RequestParser parser;
  std::size_t consumed = 0;
  ASSERT_EQ(parser.consume("GET / HTTP/1.0\r\n\r\n", &consumed),
            ParseStatus::kComplete);
  EXPECT_FALSE(parser.request().keep_alive);
  parser.reset();
  ASSERT_EQ(parser.consume(
                "GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &consumed),
            ParseStatus::kComplete);
  EXPECT_FALSE(parser.request().keep_alive);
}

// ====================================================== wire schemas ====

TEST(WireSchemaTest, JobStateNamesAreAFrozenVocabulary) {
  using serve::JobState;
  EXPECT_STREQ(serve::job_state_name(JobState::kQueued), "queued");
  EXPECT_STREQ(serve::job_state_name(JobState::kRunning), "running");
  EXPECT_STREQ(serve::job_state_name(JobState::kCompleted), "completed");
  EXPECT_STREQ(serve::job_state_name(JobState::kCancelled), "cancelled");
  EXPECT_STREQ(serve::job_state_name(JobState::kRejected), "rejected");
  EXPECT_STREQ(serve::job_state_name(JobState::kFailed), "failed");
  for (const JobState s :
       {JobState::kQueued, JobState::kRunning, JobState::kCompleted,
        JobState::kCancelled, JobState::kRejected, JobState::kFailed}) {
    const auto parsed = serve::job_state_parse(serve::job_state_name(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(serve::job_state_parse("bogus").has_value());
  EXPECT_FALSE(serve::job_state_parse("Queued").has_value());
}

TEST(WireSchemaTest, ErrorEnvelopeGolden) {
  EXPECT_EQ(serve::http::error_envelope("over_capacity",
                                        "admission: queued-jobs watermark")
                .dump(),
            "{\"error\":{\"code\":\"over_capacity\","
            "\"message\":\"admission: queued-jobs watermark\"}}");
}

TEST(WireSchemaTest, JobStatusGolden) {
  serve::JobProgress progress;
  progress.state = serve::JobState::kRunning;
  progress.docs_completed = 12;
  progress.docs_total_hint = 96;
  progress.queue_wait_seconds = 0.25;
  progress.latency_seconds = 0.0;
  EXPECT_EQ(
      serve::http::job_status_json(7, "acme", progress, "").dump(),
      "{\"docs_completed\":12,\"docs_total_hint\":96,\"error\":\"\","
      "\"id\":7,\"latency_seconds\":0,\"queue_wait_seconds\":0.25,"
      "\"state\":\"running\",\"tenant\":\"acme\"}");
}

TEST(WireSchemaTest, StreamLineGoldens) {
  EXPECT_EQ(serve::http::stream_created_line(7, "acme", 96).dump(),
            "{\"job\":{\"docs_total_hint\":96,\"id\":7,"
            "\"tenant\":\"acme\"}}");
  EXPECT_EQ(serve::http::stream_done_line(serve::JobState::kCompleted, 96,
                                          "")
                .dump(),
            "{\"done\":{\"docs_completed\":96,\"error\":\"\","
            "\"state\":\"completed\"}}");

  serve::JobRecord record;
  record.index = 3;
  record.record.document_id = "d3";
  record.record.parser = "pymupdf";
  record.record.text = "hello";
  record.record.predicted_accuracy = 0.5;
  record.record.route = "cls1:valid";
  record.record.pages = 2;
  record.record.pages_retrieved = 2;
  // The record payload rides io::ParseRecord's own serialization; the
  // envelope contributes exactly {"index":i,"record":...}.
  EXPECT_EQ(serve::http::stream_record_line(record).dump(),
            "{\"index\":3,\"record\":" + record.record.to_json().dump() +
                "}");
}

TEST(WireSchemaTest, RejectReasonsMapOntoStatuses) {
  EXPECT_EQ(
      serve::http::classify_reject("admission: queued-jobs watermark")
          .http_status,
      429);
  EXPECT_STREQ(
      serve::http::classify_reject("admission: resident-work watermark")
          .code,
      "over_capacity");
  EXPECT_EQ(serve::http::classify_reject("service shutdown").http_status,
            503);
  EXPECT_STREQ(serve::http::classify_reject("service shutdown").code,
               "shutting_down");
  EXPECT_EQ(serve::http::classify_reject("spec: engine.alpha: bad")
                .http_status,
            400);
}

// ============================================================ JobSpec ====

TEST(JobSpecTest, GoldenSerializationAndRoundTrip) {
  serve::JobSpec spec;
  spec.tenant = "acme";
  spec.engine.variant = core::Variant::kFastText;
  spec.engine.alpha = 0.25;
  spec.engine.batch_size = 16;
  spec.priority = 3;
  spec.deadline = 1500ms;
  spec.documents = serve::JobSpec::Documents::kGenerator;
  spec.generator.num_documents = 96;
  spec.generator.seed = 606;
  const std::string expected =
      "{\"deadline_ms\":1500,"
      "\"documents\":{\"generator\":{\"corrupted_fraction\":0,"
      "\"count\":96,\"scanned_fraction\":0.15,\"seed\":606}},"
      "\"engine\":{\"alpha\":0.25,\"batch_size\":16,"
      "\"cls2_threshold\":0.5,\"variant\":\"fasttext\"},"
      "\"priority\":3,\"tenant\":\"acme\"}";
  EXPECT_EQ(spec.to_json().dump(), expected);
  const auto round = serve::JobSpec::from_json(spec.to_json());
  EXPECT_EQ(round.to_json().dump(), expected);
  EXPECT_EQ(round.deadline, 1500ms);
  EXPECT_EQ(round.engine.variant, core::Variant::kFastText);
}

TEST(JobSpecTest, DefaultsApplyWhenFieldsAreOmitted) {
  const auto spec = serve::JobSpec::from_json(util::Json::parse("{}"));
  EXPECT_EQ(spec.tenant, "default");
  EXPECT_EQ(spec.documents, serve::JobSpec::Documents::kNone);
  EXPECT_EQ(spec.engine.variant, core::Variant::kLlm);
  EXPECT_EQ(spec.engine.batch_size, 256U);
}

TEST(JobSpecTest, ValidationErrorsNameTheOffendingField) {
  const struct {
    const char* body;
    const char* field;
  } cases[] = {
      {"{\"tenant\":\"\"}", "tenant"},
      {"{\"bogus\":1}", "bogus"},
      {"{\"priority\":5000}", "priority"},
      {"{\"deadline_ms\":-1}", "deadline_ms"},
      {"{\"engine\":{\"alpha\":1.5}}", "engine.alpha"},
      {"{\"engine\":{\"variant\":\"gpt\"}}", "engine.variant"},
      {"{\"engine\":{\"batch_size\":0}}", "engine.batch_size"},
      {"{\"engine\":{\"turbo\":true}}", "engine.turbo"},
      {"{\"documents\":{}}", "documents"},
      {"{\"documents\":{\"generator\":{\"count\":96},"
       "\"shard_file\":\"x\"}}",
       "documents"},
      {"{\"documents\":{\"generator\":{\"count\":0}}}",
       "documents.generator.count"},
      {"{\"documents\":{\"inline\":[]}}", "documents.inline"},
      {"{\"documents\":{\"inline\":[{\"id\":\"d\"}]}}",
       "documents.inline[0].pages"},
      {"{\"documents\":{\"inline\":[{\"id\":\"\","
       "\"pages\":[\"x\"]}]}}",
       "documents.inline[0].id"},
      {"{\"documents\":{\"shard_file\":\"\"}}", "documents.shard_file"},
  };
  for (const auto& c : cases) {
    try {
      (void)serve::JobSpec::from_json(util::Json::parse(c.body));
      FAIL() << "no SpecError for " << c.body;
    } catch (const serve::SpecError& e) {
      EXPECT_EQ(e.field(), c.field) << c.body;
    }
  }
}

TEST(JobSpecTest, InlineDocumentsMaterializeBornDigital) {
  serve::JobSpec spec;
  spec.documents = serve::JobSpec::Documents::kInline;
  spec.inline_docs.push_back({"w1", {"Hello world.", "Second page."}, 9});
  auto source = spec.make_source();
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->size_hint(), 1U);
  const auto doc = source->next();
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->id, "w1");
  ASSERT_EQ(doc->text_layer.pages.size(), 2U);
  EXPECT_TRUE(doc->text_layer.present);
  EXPECT_DOUBLE_EQ(doc->text_layer.fidelity, 1.0);
  EXPECT_EQ(doc->groundtruth_pages, doc->text_layer.pages);
  EXPECT_EQ(source->next(), nullptr);
}

// ======================================================= integration ====

std::shared_ptr<core::Cls2Improver> shared_improver() {
  static const auto improver = std::make_shared<core::Cls2Improver>();
  return improver;
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const net::IoResult r = net::write_some(fd, data);
    ASSERT_EQ(r.status, net::IoStatus::kOk);
    data.remove_prefix(r.bytes);
  }
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[8192];
  for (;;) {
    const net::IoResult r = net::read_some(fd, buf, sizeof(buf));
    if (r.status == net::IoStatus::kOk) {
      out.append(buf, r.bytes);
      continue;
    }
    break;  // EOF or error: the caller asserts on content
  }
  return out;
}

std::string read_until(int fd, std::string_view needle) {
  std::string out;
  char buf[4096];
  while (out.find(needle) == std::string::npos) {
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
    pos = eol + 2 + size + 2;  // chunk + trailing CRLF
  }
  return out;
}

struct WireResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;                            // dechunked when needed
};

WireResponse parse_response(const std::string& raw) {
  WireResponse out;
  const std::size_t head_end = raw.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos);
  if (head_end == std::string::npos) return out;
  const std::string head = raw.substr(0, head_end);
  out.status = std::stoi(head.substr(head.find(' ') + 1));
  std::size_t line = head.find("\r\n");
  while (line != std::string::npos) {
    const std::size_t next = head.find("\r\n", line + 2);
    std::string field = head.substr(
        line + 2,
        (next == std::string::npos ? head.size() : next) - line - 2);
    const std::size_t colon = field.find(':');
    if (colon != std::string::npos) {
      std::string name = field.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::size_t vstart = colon + 1;
      while (vstart < field.size() && field[vstart] == ' ') ++vstart;
      out.headers[name] = field.substr(vstart);
    }
    line = next;
  }
  std::string body = raw.substr(head_end + 4);
  if (out.headers.count("transfer-encoding")) {
    body = dechunk(body);
  }
  out.body = std::move(body);
  return out;
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

/// One round trip on a fresh connection; `raw` should say
/// "Connection: close" so EOF delimits the response.
WireResponse roundtrip(std::uint16_t port, const std::string& raw) {
  net::Fd fd = net::connect_blocking("127.0.0.1", port);
  send_all(fd.get(), raw);
  return parse_response(read_to_eof(fd.get()));
}

std::string post_parse_request(const std::string& body) {
  return "POST /v1/parse HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

serve::ServiceConfig small_service_config() {
  serve::ServiceConfig config;
  config.dispatchers = 1;
  config.slice_batches = 1;
  config.pool_threads = 4;
  return config;
}

TEST(HttpServerTest, StreamedRecordsAreByteIdenticalToStandaloneRun) {
  doc::GeneratorConfig corpus;
  corpus.num_documents = 96;
  corpus.seed = 606;

  core::EngineConfig engine_config;
  engine_config.variant = core::Variant::kFastText;
  engine_config.alpha = 0.25;
  engine_config.batch_size = 16;
  const core::AdaParseEngine engine(engine_config, nullptr,
                                    shared_improver());
  const auto reference = engine.run(doc::CorpusGenerator(corpus).generate());

  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);

  const auto response = roundtrip(
      server.port(),
      post_parse_request(
          "{\"tenant\":\"acme\","
          "\"engine\":{\"variant\":\"fasttext\",\"alpha\":0.25,"
          "\"batch_size\":16},"
          "\"documents\":{\"generator\":{\"count\":96,\"seed\":606}}}"));
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(response.headers.count("x-adaparse-job-id"));
  EXPECT_EQ(response.headers.at("content-type"), "application/x-ndjson");

  const auto lines = split_lines(response.body);
  ASSERT_EQ(lines.size(), 96U + 2);  // created + records + done
  const auto created = util::Json::parse(lines.front());
  EXPECT_EQ(created.at("job").at("tenant").as_string(), "acme");
  EXPECT_EQ(created.at("job").at("docs_total_hint").as_number(), 96.0);

  ASSERT_EQ(reference.records.size(), 96U);
  for (std::size_t i = 0; i < 96; ++i) {
    const auto line = util::Json::parse(lines[i + 1]);
    EXPECT_EQ(line.at("index").as_number(), static_cast<double>(i));
    // The acceptance bar: every streamed record serializes to exactly the
    // bytes a standalone AdaParseEngine::run() would have written.
    EXPECT_EQ(line.at("record").dump(),
              reference.records[i].to_json().dump())
        << "record " << i;
  }
  const auto done = util::Json::parse(lines.back());
  EXPECT_EQ(done.at("done").at("state").as_string(), "completed");
  EXPECT_EQ(done.at("done").at("docs_completed").as_number(), 96.0);

  service.drain();
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, InlineDocumentsRoundTripOverTheWire) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);
  const auto response = roundtrip(
      server.port(),
      post_parse_request(
          "{\"engine\":{\"variant\":\"fasttext\",\"batch_size\":4},"
          "\"documents\":{\"inline\":[{\"id\":\"w1\","
          "\"pages\":[\"AdaParse routes documents adaptively.\"]}]}}"));
  EXPECT_EQ(response.status, 200);
  const auto lines = split_lines(response.body);
  ASSERT_EQ(lines.size(), 3U);
  const auto record = util::Json::parse(lines[1]);
  EXPECT_EQ(record.at("record").at("id").as_string(), "w1");
  const auto done = util::Json::parse(lines[2]);
  EXPECT_EQ(done.at("done").at("state").as_string(), "completed");
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, ErrorEnvelopesOverTheWire) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);
  const std::uint16_t port = server.port();

  {  // unknown resource
    const auto r = roundtrip(
        port, "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(r.status, 404);
    EXPECT_EQ(util::Json::parse(r.body).at("error").at("code").as_string(),
              "not_found");
  }
  {  // wrong method
    const auto r = roundtrip(
        port, "GET /v1/parse HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(r.status, 405);
  }
  {  // unknown job
    const auto r = roundtrip(
        port, "GET /v1/jobs/99999 HTTP/1.1\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(r.status, 404);
  }
  {  // body is not JSON
    const auto r = roundtrip(port, post_parse_request("not json"));
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(util::Json::parse(r.body).at("error").at("code").as_string(),
              "bad_json");
  }
  {  // spec validation failure names the field
    const auto r = roundtrip(
        port, post_parse_request("{\"engine\":{\"alpha\":2.0}}"));
    EXPECT_EQ(r.status, 400);
    const auto err = util::Json::parse(r.body).at("error");
    EXPECT_EQ(err.at("code").as_string(), "invalid_spec");
    EXPECT_NE(err.at("message").as_string().find("engine.alpha"),
              std::string::npos);
  }
  {  // no documents section on the wire
    const auto r = roundtrip(port, post_parse_request("{}"));
    EXPECT_EQ(r.status, 400);
  }
  {  // oversized header block -> 431 from the parser, envelope body
    const auto r = roundtrip(
        port, "GET /metrics HTTP/1.1\r\nX-Big: " +
                  std::string(20000, 'x') + "\r\nConnection: close\r\n\r\n");
    EXPECT_EQ(r.status, 431);
  }
  {  // declared body over limit -> 413
    const auto r = roundtrip(
        port,
        "POST /v1/parse HTTP/1.1\r\nContent-Length: 99999999\r\n"
        "Connection: close\r\n\r\n");
    EXPECT_EQ(r.status, 413);
  }
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, DeeplyNestedBodyIsBadJsonNotACrash) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);
  const std::uint16_t port = server.port();
  // 100 KB of '[' would recurse the parser off the end of the stack.
  const auto r = roundtrip(port, post_parse_request(std::string(100000, '[')));
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(util::Json::parse(r.body).at("error").at("code").as_string(),
            "bad_json");
  // The server survived: the next request is served normally.
  const auto next = roundtrip(
      port, "GET /v1/jobs/99999 HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(next.status, 404);
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, JobStatusAndCancelEndpoints) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);
  const std::uint16_t port = server.port();

  // Start a long job on connection A and pick its id out of the head.
  net::Fd stream_fd = net::connect_blocking("127.0.0.1", port);
  send_all(stream_fd.get(),
           post_parse_request(
               "{\"tenant\":\"acme\","
               "\"engine\":{\"variant\":\"fasttext\",\"batch_size\":16},"
               "\"documents\":{\"generator\":{\"count\":4000,"
               "\"seed\":11}}}"));
  const std::string head = read_until(stream_fd.get(), "\r\n\r\n");
  const std::size_t id_pos = head.find("X-Adaparse-Job-Id: ");
  ASSERT_NE(id_pos, std::string::npos);
  const std::string id = head.substr(
      id_pos + 19, head.find('\r', id_pos) - id_pos - 19);

  // Status via a second connection.
  const auto status = roundtrip(
      port, "GET /v1/jobs/" + id +
                " HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(status.status, 200);
  const auto status_json = util::Json::parse(status.body);
  EXPECT_EQ(status_json.at("id").as_number(), std::stod(id));
  EXPECT_EQ(status_json.at("tenant").as_string(), "acme");
  ASSERT_TRUE(
      serve::job_state_parse(status_json.at("state").as_string())
          .has_value());

  // Cancel via DELETE; the stream must terminate with a cancelled done
  // line (records before it are retained).
  const auto cancel = roundtrip(
      port, "DELETE /v1/jobs/" + id +
                " HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(cancel.status, 202);

  std::string rest = read_to_eof(stream_fd.get());
  const std::string full = head.substr(head.find("\r\n\r\n") + 4) + rest;
  const auto lines = split_lines(dechunk(full));
  ASSERT_GE(lines.size(), 2U);
  const auto done = util::Json::parse(lines.back());
  EXPECT_EQ(done.at("done").at("state").as_string(), "cancelled");
  EXPECT_LT(done.at("done").at("docs_completed").as_number(), 4000.0);

  server.stop();
  service.shutdown();
}

/// Connects with a tiny SO_RCVBUF so the kernel cannot absorb the stream
/// on the client's behalf — the slow-reader scenarios need backpressure
/// to reach the server quickly.
int connect_small_rcvbuf(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int rcvbuf = 4096;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

TEST(HttpServerTest, SlowClientParksItsJobAndResumesOnDrain) {
  auto config = small_service_config();
  config.max_resident_documents = 5000;
  serve::ParseService service(config, nullptr, shared_improver());
  serve::http::HttpServerConfig http_config;
  http_config.write_high_watermark = 16 * 1024;
  http_config.write_low_watermark = 4 * 1024;
  serve::http::HttpServer server(service, http_config);

  const int fd = connect_small_rcvbuf(server.port());
  send_all(fd,
           post_parse_request(
               "{\"tenant\":\"slow\","
               "\"engine\":{\"variant\":\"fasttext\",\"batch_size\":16},"
               "\"documents\":{\"generator\":{\"count\":900,"
               "\"seed\":77}}}"));

  // Don't read: the server must park the job instead of buffering 900
  // records. Parking oscillates at first — each flush into the kernel's
  // socket buffers drains the outbuf below the low watermark and resumes
  // the job — but the stream is far larger than the kernel can absorb
  // with a 4 KiB receive buffer, so once those fill the job stays parked
  // with no slice in flight. Require that *stable* state: 20 consecutive
  // 1 ms samples with the job parked and nothing executing.
  int stable = 0;
  for (int i = 0; i < 30000 && stable < 20; ++i) {
    const bool quiescent =
        service.parked_jobs() == 1 && service.running_jobs() == 0;
    stable = quiescent ? stable + 1 : 0;
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(stable, 20) << "slow client never parked its job durably";
  EXPECT_LE(service.resident_documents(),
            config.max_resident_documents);

  // Now drain the stream; the job resumes and completes in full order.
  const std::string raw = read_to_eof(fd);
  ::close(fd);
  const auto lines = split_lines(dechunk(raw.substr(raw.find("\r\n\r\n") + 4)));
  ASSERT_EQ(lines.size(), 900U + 2);
  for (std::size_t i = 0; i < 900; ++i) {
    EXPECT_EQ(util::Json::parse(lines[i + 1]).at("index").as_number(),
              static_cast<double>(i));
  }
  EXPECT_EQ(util::Json::parse(lines.back())
                .at("done")
                .at("state")
                .as_string(),
            "completed");
  EXPECT_EQ(service.parked_jobs(), 0U);

  // The backpressure counter is visible on /metrics.
  const auto metrics = roundtrip(
      server.port(), "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(metrics.body.find("adaparse_http_backpressure_pauses_total"),
            std::string::npos);
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, DisconnectMidStreamCancelsTheJob) {
  auto config = small_service_config();
  serve::ParseService service(config, nullptr, shared_improver());
  serve::http::HttpServerConfig http_config;
  http_config.write_high_watermark = 16 * 1024;
  serve::http::HttpServer server(service, http_config);

  const int fd = connect_small_rcvbuf(server.port());
  send_all(fd,
           post_parse_request(
               "{\"engine\":{\"variant\":\"fasttext\",\"batch_size\":16},"
               "\"documents\":{\"generator\":{\"count\":4000,"
               "\"seed\":5}}}"));
  // Wait for the stream to start, then vanish without reading it out —
  // closing with unread data sends a reset.
  for (int i = 0; i < 10000 && service.resident_documents() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GT(service.resident_documents(), 0U);
  ::close(fd);

  // The server must notice, cancel the job, and release its admission
  // charge.
  bool released = false;
  for (int i = 0; i < 20000 && !released; ++i) {
    released = service.resident_documents() == 0;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(released) << "disconnect did not cancel the streamed job";
  EXPECT_EQ(service.parked_jobs(), 0U);

  const auto metrics = roundtrip(
      server.port(), "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_NE(metrics.body.find("adaparse_http_disconnect_cancels_total 1"),
            std::string::npos);
  EXPECT_EQ(server.open_connections(), 0U);
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, MetricsScrapeMergesServiceAndHttpFamilies) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);
  const auto r = roundtrip(
      server.port(), "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(r.status, 200);
  // Service families first (PR 8 exposition), then the HTTP layer's.
  EXPECT_NE(r.body.find("adaparse_serve_queued_jobs"), std::string::npos);
  EXPECT_NE(r.body.find("adaparse_http_connections_total"),
            std::string::npos);
  EXPECT_NE(r.body.find("adaparse_http_requests_total"),
            std::string::npos);
  EXPECT_NE(r.body.find("adaparse_http_request_latency_seconds"),
            std::string::npos);
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, KeepAliveServesSequentialRequests) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);
  net::Fd fd = net::connect_blocking("127.0.0.1", server.port());
  // Two pipelined status requests on one connection; both answered, in
  // order, framed by Content-Length.
  send_all(fd.get(),
           "GET /v1/jobs/1 HTTP/1.1\r\nHost: t\r\n\r\n"
           "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  const std::string raw = read_to_eof(fd.get());
  EXPECT_NE(raw.find("HTTP/1.1 404 "), std::string::npos);
  // Both responses arrived (two heads in the byte stream).
  std::size_t heads = 0;
  for (std::size_t pos = raw.find("HTTP/1.1 ");
       pos != std::string::npos; pos = raw.find("HTTP/1.1 ", pos + 1)) {
    ++heads;
  }
  EXPECT_EQ(heads, 2U);
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, PipelinedFloodParksReadsAndAnswersEverything) {
  // A client that pipelines many requests while never reading responses
  // must hit TCP flow control (reads parked at the write high watermark),
  // not grow the server's output buffer without bound — and once it does
  // read, every parked request must still be answered, in order.
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServerConfig http_config;
  http_config.write_high_watermark = 2048;
  http_config.write_low_watermark = 512;
  serve::http::HttpServer server(service, http_config);

  constexpr int kRequests = 30;
  net::Fd fd = net::connect_blocking("127.0.0.1", server.port());
  std::string flood;
  for (int i = 0; i < kRequests - 1; ++i) {
    flood += "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  }
  flood += "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  send_all(fd.get(), flood);
  // Give the server time to saturate the watermark before we drain.
  std::this_thread::sleep_for(50ms);

  const std::string raw = read_to_eof(fd.get());
  std::size_t heads = 0;
  for (std::size_t pos = raw.find("HTTP/1.1 200 ");
       pos != std::string::npos; pos = raw.find("HTTP/1.1 200 ", pos + 1)) {
    ++heads;
  }
  EXPECT_EQ(heads, static_cast<std::size_t>(kRequests));
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, ShardFileIsForbiddenWithoutAConfiguredRoot) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServer server(service);  // no shard_root
  const auto r = roundtrip(
      server.port(),
      post_parse_request("{\"documents\":{\"shard_file\":\"x.shard\"}}"));
  EXPECT_EQ(r.status, 403);
  EXPECT_EQ(util::Json::parse(r.body).at("error").at("code").as_string(),
            "shard_file_forbidden");
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, ShardFileIsConfinedToTheShardRoot) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "adaparse_http_shards";
  fs::remove_all(root);
  fs::create_directories(root);

  // A real shard inside the root...
  doc::GeneratorConfig corpus;
  corpus.num_documents = 12;
  corpus.seed = 99;
  io::write_file_atomic(
      (root / "ok.shard").string(),
      io::pack_corpus_shard(doc::CorpusGenerator(corpus).generate()));
  // ...a file OUTSIDE the root (must stay unreachable)...
  io::write_file_atomic((root.parent_path() / "outside.shard").string(),
                        "secret");
  // ...a symlink inside the root escaping it, and a FIFO (must not block
  // or be read).
  fs::create_symlink(root.parent_path() / "outside.shard", root / "link");
  ASSERT_EQ(::mkfifo((root / "pipe.shard").c_str(), 0600), 0);

  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServerConfig http_config;
  http_config.shard_root = root.string();
  serve::http::HttpServer server(service, http_config);
  const std::uint16_t port = server.port();

  const auto shard_request = [](const std::string& name) {
    return post_parse_request(
        "{\"engine\":{\"variant\":\"fasttext\",\"batch_size\":4},"
        "\"documents\":{\"shard_file\":\"" + name + "\"}}");
  };

  {  // happy path: the confined shard streams all its records
    const auto r = roundtrip(port, shard_request("ok.shard"));
    EXPECT_EQ(r.status, 200);
    const auto lines = split_lines(r.body);
    ASSERT_EQ(lines.size(), 12U + 2);  // created + records + done
    EXPECT_EQ(util::Json::parse(lines.back())
                  .at("done")
                  .at("state")
                  .as_string(),
              "completed");
  }
  {  // dot-segment escape
    const auto r = roundtrip(port, shard_request("../outside.shard"));
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(
        util::Json::parse(r.body).at("error").at("code").as_string(),
        "shard_unavailable");
  }
  {  // symlink escape
    const auto r = roundtrip(port, shard_request("link"));
    EXPECT_EQ(r.status, 400);
  }
  {  // absolute path
    const auto r = roundtrip(
        port, shard_request((root.parent_path() / "outside.shard")
                                .string()));
    EXPECT_EQ(r.status, 400);
  }
  {  // missing shard — and the 404 must not leak the resolved path
    const auto r = roundtrip(port, shard_request("nope.shard"));
    EXPECT_EQ(r.status, 404);
    EXPECT_EQ(util::Json::parse(r.body)
                  .at("error")
                  .at("message")
                  .as_string()
                  .find(root.string()),
              std::string::npos);
  }
  {  // a FIFO must be rejected as not-a-regular-file, never opened
     // blocking (a hang here would stall this whole test)
    const auto r = roundtrip(port, shard_request("pipe.shard"));
    EXPECT_EQ(r.status, 400);
  }
  {  // garbage bytes inside the root: confined, read, rejected as
     // malformed by the codec
    io::write_file_atomic((root / "junk.shard").string(), "not a shard");
    const auto r = roundtrip(port, shard_request("junk.shard"));
    EXPECT_EQ(r.status, 400);
    EXPECT_EQ(
        util::Json::parse(r.body).at("error").at("code").as_string(),
        "shard_malformed");
  }
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, OversizedShardFileAnswers413) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(::testing::TempDir()) / "adaparse_http_shards_big";
  fs::remove_all(root);
  fs::create_directories(root);
  io::write_file_atomic((root / "big.shard").string(),
                        std::string(4096, 'x'));

  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  serve::http::HttpServerConfig http_config;
  http_config.shard_root = root.string();
  http_config.max_shard_bytes = 1024;
  serve::http::HttpServer server(service, http_config);

  const auto r = roundtrip(
      server.port(),
      post_parse_request(
          "{\"documents\":{\"shard_file\":\"big.shard\"}}"));
  EXPECT_EQ(r.status, 413);
  EXPECT_EQ(util::Json::parse(r.body).at("error").at("code").as_string(),
            "shard_too_large");
  server.stop();
  service.shutdown();
}

TEST(HttpServerTest, ConcurrentStopCallsAreSerialized) {
  serve::ParseService service(small_service_config(), nullptr,
                              shared_improver());
  auto server = std::make_unique<serve::http::HttpServer>(service);
  // Rule out the double-join race: every caller either performs the full
  // shutdown or waits for the winner — never two joins of one thread.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { server->stop(); });
  }
  for (auto& t : stoppers) t.join();
  server->stop();  // still idempotent afterwards
  server.reset();
  service.shutdown();
}

}  // namespace
}  // namespace adaparse
