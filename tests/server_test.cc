/// Query service layer (src/server/): the wire protocol must reject
/// malformed frames with typed errors and never crash; sessions must
/// run the full HELLO/QUERY/STREAM/CANCEL/CLOSE lifecycle with results
/// bit-identical to the standalone engine; admission control must be
/// fair FIFO with typed rejections; and the metrics gauges must drain
/// back to zero when the clients are gone — that is what makes leaked
/// sessions and queries observable.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/stream_executor.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload/generators.h"

namespace sqlts {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// JSON document model
// ---------------------------------------------------------------------------

TEST(Json, RoundTripsDocuments) {
  const char* cases[] = {
      "null",
      "true",
      "false",
      "0",
      "-1",
      "9223372036854775807",
      "-9223372036854775808",
      "\"hello\"",
      "\"esc \\\" \\\\ \\n \\t \\u0001\"",
      "[]",
      "[1,2,3]",
      "{}",
      "{\"a\":[{\"b\":null}],\"c\":\"d\"}",
  };
  for (const char* text : cases) {
    auto doc = Json::Parse(text);
    ASSERT_TRUE(doc.ok()) << text << ": " << doc.status();
    EXPECT_EQ(doc->Dump(), text) << text;
  }
}

TEST(Json, ParsesIntegersExactly) {
  auto doc = Json::Parse("{\"v\":9223372036854775807}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("v")->kind(), Json::Kind::kInt);
  EXPECT_EQ(doc->Find("v")->int_value(), INT64_MAX);
}

TEST(Json, RejectsMalformedInput) {
  const char* cases[] = {
      "", "{", "}", "{\"a\"}", "[1,", "\"unterminated", "tru",
      "{\"a\":1,}", "nul", "1 2", "{\"a\":1}garbage", "\"bad \\x escape\"",
  };
  for (const char* text : cases) {
    auto doc = Json::Parse(text);
    EXPECT_FALSE(doc.ok()) << "accepted: " << text;
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(Json, SurrogatePairsDecode) {
  auto doc = Json::Parse("\"\\ud83d\\ude00\"");  // 😀
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->string_value(), "\xf0\x9f\x98\x80");
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsAcrossSplitFeeds) {
  std::string wire;
  for (const char* payload : {"{\"a\":1}", "{}", "{\"long\":\"xxxxxxx\"}"}) {
    wire += EncodeFrame(payload);
  }
  FrameDecoder decoder;
  std::vector<std::string> got;
  // Feed one byte at a time: reassembly must be position-independent.
  for (char c : wire) {
    decoder.Feed(std::string_view(&c, 1));
    std::string payload;
    while (true) {
      auto has = decoder.Next(&payload);
      ASSERT_TRUE(has.ok());
      if (!*has) break;
      got.push_back(payload);
    }
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "{\"a\":1}");
  EXPECT_EQ(got[1], "{}");
  EXPECT_EQ(got[2], "{\"long\":\"xxxxxxx\"}");
}

TEST(FrameCodec, TruncatedFrameJustWaits) {
  std::string frame = EncodeFrame("{\"a\":1}");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(frame).substr(0, frame.size() - 2));
  std::string payload;
  auto has = decoder.Next(&payload);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);  // incomplete, not an error
  decoder.Feed(std::string_view(frame).substr(frame.size() - 2));
  has = decoder.Next(&payload);
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  EXPECT_EQ(payload, "{\"a\":1}");
}

TEST(FrameCodec, OversizedLengthPoisonsDecoder) {
  FrameDecoder decoder;
  const uint32_t huge = kMaxFrameBytes + 1;
  char header[4] = {static_cast<char>(huge >> 24), static_cast<char>(huge >> 16),
                    static_cast<char>(huge >> 8), static_cast<char>(huge)};
  decoder.Feed(std::string_view(header, 4));
  std::string payload;
  auto has = decoder.Next(&payload);
  ASSERT_FALSE(has.ok());
  EXPECT_EQ(has.status().code(), StatusCode::kInvalidArgument);
  // Poisoned: recovery mid-stream is impossible.
  decoder.Feed(EncodeFrame("{}"));
  EXPECT_FALSE(decoder.Next(&payload).ok());
}

TEST(FrameCodec, ZeroLengthFrameRejected) {
  FrameDecoder decoder;
  decoder.Feed(std::string_view("\0\0\0\0", 4));
  std::string payload;
  EXPECT_FALSE(decoder.Next(&payload).ok());
}

TEST(FrameCodec, GarbagePayloadRejectedTyped) {
  auto bad = ParseMessage("this is not json");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  auto nonobj = ParseMessage("[1,2,3]");
  ASSERT_FALSE(nonobj.ok());
  EXPECT_EQ(nonobj.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Lossless value encoding
// ---------------------------------------------------------------------------

std::string WireDump(const Value& v) { return EncodeValue(v).Dump(); }

Value RoundTrip(const Value& v) {
  auto parsed = Json::Parse(WireDump(v));
  SQLTS_CHECK(parsed.ok()) << parsed.status();
  auto decoded = DecodeValue(*parsed);
  SQLTS_CHECK(decoded.ok()) << decoded.status();
  return *decoded;
}

TEST(ValueWire, RoundTripsEveryTypeBitIdentically) {
  std::vector<Value> values = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int64(0),
      Value::Int64(INT64_MAX),
      Value::Int64(INT64_MIN),
      Value::Int64((int64_t{1} << 53) + 1),  // beyond double precision
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(0.1),
      Value::Double(1e-300),
      Value::Double(1.7976931348623157e308),
      Value::String(""),
      Value::String("plain"),
      Value::String("quo\"tes \\ and \n control \x01"),
      Value::FromDate(Date(0)),
      Value::FromDate(Date(20000)),
  };
  for (const Value& v : values) {
    EXPECT_EQ(WireDump(RoundTrip(v)), WireDump(v)) << WireDump(v);
  }
}

TEST(ValueWire, NonFiniteDoublesSurvive) {
  EXPECT_EQ(WireDump(Value::Double(NAN)), "{\"d\":\"nan\"}");
  EXPECT_EQ(WireDump(Value::Double(INFINITY)), "{\"d\":\"inf\"}");
  EXPECT_EQ(WireDump(Value::Double(-INFINITY)), "{\"d\":\"-inf\"}");
  EXPECT_TRUE(std::isnan(RoundTrip(Value::Double(NAN)).AsDouble()));
  EXPECT_EQ(RoundTrip(Value::Double(INFINITY)).AsDouble(), INFINITY);
}

TEST(ValueWire, SchemaRoundTrips) {
  Schema s = QuoteSchema();
  auto parsed = Json::Parse(EncodeSchema(s).Dump());
  ASSERT_TRUE(parsed.ok());
  auto back = DecodeSchema(*parsed);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(EncodeSchema(*back).Dump(), EncodeSchema(s).Dump());
}

// ---------------------------------------------------------------------------
// Server fixtures
// ---------------------------------------------------------------------------

constexpr char kDip[] =
    "SELECT X.name, Y.date, Y.price FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, Y) WHERE Y.price < 0.97 * X.price";
constexpr char kDeepDip[] =
    "SELECT Y.date FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, Y) WHERE Y.price < 0.97 * X.price "
    "AND X.price > 50";
constexpr char kNeverCompleting[] =
    "SELECT X.price, COUNT(Y) FROM quote CLUSTER BY name "
    "SEQUENCE BY date AS (X, *Y, Z) WHERE Y.price >= 0 AND Z.price < 0";

Table ServerTable(int rows_per_instrument = 60) {
  std::vector<double> a, b;
  for (int i = 0; i < rows_per_instrument; ++i) {
    a.push_back(100.0 + 10.0 * std::sin(i * 0.7) - 0.05 * i);
    b.push_back(60.0 + 8.0 * std::sin(i * 0.45 + 1.0) + 0.03 * i);
  }
  Table t = PricesToQuoteTable("IBM", Date(10000), a);
  SQLTS_CHECK_OK(AppendInstrument(&t, "HP", Date(10000), b));
  return t;
}

/// Expected wire rows of running `query` standalone over `table`.
std::vector<std::string> OracleRows(const Table& table,
                                    const std::string& query) {
  auto result = QueryExecutor::Execute(table, query);
  SQLTS_CHECK(result.ok()) << result.status();
  std::vector<std::string> rows;
  for (int64_t r = 0; r < result->output.num_rows(); ++r) {
    rows.push_back(EncodeRow(result->output.GetRow(r)).Dump());
  }
  return rows;
}

/// Expected wire rows of a standalone streaming run over the suffix
/// [first_row, end) — what a mid-stream joiner at that epoch must see.
std::vector<std::string> OracleStreamRows(const Table& table,
                                          const std::string& query,
                                          int64_t first_row) {
  std::vector<std::string> rows;
  auto exec = StreamingQueryExecutor::Create(
      query, table.schema(),
      [&rows](const Row& row) { rows.push_back(EncodeRow(row).Dump()); });
  SQLTS_CHECK(exec.ok()) << exec.status();
  for (int64_t r = first_row; r < table.num_rows(); ++r) {
    SQLTS_CHECK_OK((*exec)->Push(table.GetRow(r)));
  }
  SQLTS_CHECK_OK((*exec)->Finish());
  return rows;
}

std::unique_ptr<Server> StartServer(Server::Options options,
                                    Table table = ServerTable()) {
  auto server = std::make_unique<Server>(options);
  SQLTS_CHECK_OK(server->AddDataset("quotes", std::move(table)));
  SQLTS_CHECK_OK(server->Start());
  return server;
}

SqltsClient MustConnect(const Server& server) {
  auto client = SqltsClient::Connect("127.0.0.1", server.port());
  SQLTS_CHECK(client.ok()) << client.status();
  // Tests must fail, not hang, when a reply goes missing.
  SQLTS_CHECK_OK(client->socket().SetRecvTimeout(20000));
  return std::move(*client);
}

/// Polls until `cond` holds (tolerating teardown latency) or fails.
template <typename Cond>
void EventuallyTrue(Cond cond, const char* what) {
  for (int i = 0; i < 5000; ++i) {
    if (cond()) return;
    std::this_thread::sleep_for(milliseconds(2));
  }
  FAIL() << "condition never held: " << what;
}

// ---------------------------------------------------------------------------
// Session lifecycle
// ---------------------------------------------------------------------------

TEST(ServerSession, HelloQueryCloseLifecycle) {
  auto server = StartServer({});
  SqltsClient client = MustConnect(*server);

  auto welcome = client.Hello("lifecycle-test");
  ASSERT_TRUE(welcome.ok()) << welcome.status();
  EXPECT_EQ(welcome->GetInt("protocol", -1), kProtocolVersion);
  EXPECT_GT(welcome->GetInt("session", -1), 0);

  auto reply = client.Query(1, "quotes", kDip);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->GetString("type", ""), "RESULT");
  const std::vector<std::string> oracle = OracleRows(ServerTable(), kDip);
  const Json* rows = reply->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array().size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(rows->array()[i].Dump(), oracle[i]) << "row " << i;
  }
  EXPECT_EQ(reply->GetInt("rows_returned", -1),
            static_cast<int64_t>(oracle.size()));
  ASSERT_NE(reply->Find("stats"), nullptr);
  EXPECT_GT(reply->Find("stats")->GetInt("matches", -1), 0);

  EXPECT_TRUE(client.Close().ok());
  EventuallyTrue([&] { return server->metrics().sessions_active.load() == 0; },
                 "sessions_active drains to 0");
  EXPECT_EQ(server->metrics().queries_in_flight.load(), 0);
}

TEST(ServerSession, BadQueryGetsTypedErrorAndSessionSurvives) {
  auto server = StartServer({});
  SqltsClient client = MustConnect(*server);
  auto bad = client.Query(1, "quotes", "SELECT FROM nonsense");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << bad.status();
  // The session is still usable after a failed request.
  auto good = client.Query(2, "quotes", kDip);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->GetString("type", ""), "RESULT");
  EXPECT_GE(server->metrics().queries_failed.load(), 1);
}

TEST(ServerSession, UnknownDatasetIsNotFound) {
  auto server = StartServer({});
  SqltsClient client = MustConnect(*server);
  auto reply = client.Query(1, "no_such_dataset", kDip);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
}

TEST(ServerSession, UnknownMessageTypeToleratedAndCounted) {
  auto server = StartServer({});
  SqltsClient client = MustConnect(*server);
  Json bogus = Json::Obj();
  bogus.Set("type", Json::Str("BOGUS"));
  bogus.Set("id", Json::Int(9));
  ASSERT_TRUE(client.Send(bogus).ok());
  auto reply = client.Read();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetString("type", ""), "ERROR");
  EXPECT_EQ(reply->GetString("code", ""), "InvalidArgument");
  EXPECT_GE(server->metrics().protocol_errors.load(), 1);
  // Well-formed frame with a bogus type does not kill the session.
  auto good = client.Query(1, "quotes", kDip);
  EXPECT_TRUE(good.ok()) << good.status();
}

TEST(ServerSession, MalformedJsonClosesSessionWithTypedError) {
  auto server = StartServer({});
  SqltsClient client = MustConnect(*server);
  ASSERT_TRUE(client.socket().WriteAll(EncodeFrame("{not json")).ok());
  auto reply = client.Read();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetString("type", ""), "ERROR");
  EXPECT_EQ(reply->GetString("code", ""), "ParseError");
  // The server hangs up after a protocol error.
  auto next = client.Read();
  EXPECT_FALSE(next.ok());
  EventuallyTrue([&] { return server->metrics().sessions_active.load() == 0; },
                 "session closed after protocol error");
  EXPECT_GE(server->metrics().protocol_errors.load(), 1);
}

TEST(ServerSession, DuplicateInFlightIdRejected) {
  Server::Options options;
  options.stream_delay_us = 2000;
  auto server = StartServer(options, ServerTable(200));
  SqltsClient client = MustConnect(*server);
  Json stream = Json::Obj();
  stream.Set("type", Json::Str("STREAM"));
  stream.Set("id", Json::Int(5));
  stream.Set("dataset", Json::Str("quotes"));
  stream.Set("query", Json::Str(kDip));
  ASSERT_TRUE(client.Send(stream).ok());
  auto start = client.Read();
  ASSERT_TRUE(start.ok()) << start.status();
  ASSERT_EQ(start->GetString("type", ""), "STREAM_START");
  // Same id again while the stream is live → AlreadyExists.
  ASSERT_TRUE(client.Send(stream).ok());
  while (true) {
    auto reply = client.Read();
    ASSERT_TRUE(reply.ok()) << reply.status();
    const std::string type = reply->GetString("type", "");
    if (type == "ROW") continue;
    ASSERT_EQ(type, "ERROR");
    EXPECT_EQ(reply->GetString("code", ""), "AlreadyExists");
    break;
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServerAdmission, RejectsBeyondBacklogWithTypedError) {
  Server::Options options;
  options.max_sessions = 1;
  options.admission_backlog = 0;
  auto server = StartServer(options);
  SqltsClient first = MustConnect(*server);
  ASSERT_TRUE(first.Hello("first").ok());
  // Second connection: no session slot, no backlog slot → typed reject.
  SqltsClient second = MustConnect(*server);
  auto reply = second.Read();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->GetString("type", ""), "ERROR");
  EXPECT_EQ(reply->GetString("code", ""), "ResourceExhausted");
  EXPECT_EQ(server->metrics().sessions_rejected.load(), 1);
}

TEST(ServerAdmission, FifoWaitersAdmittedInArrivalOrder) {
  Server::Options options;
  options.max_sessions = 1;
  options.admission_backlog = 4;
  auto server = StartServer(options);
  SqltsClient first = MustConnect(*server);
  ASSERT_TRUE(first.Hello("first").ok());
  // Two more clients queue behind the session cap, in order.
  SqltsClient second = MustConnect(*server);
  EventuallyTrue([&] { return server->metrics().sessions_waiting.load() == 1; },
                 "second client waits");
  SqltsClient third = MustConnect(*server);
  EventuallyTrue([&] { return server->metrics().sessions_waiting.load() == 2; },
                 "third client waits");
  // second's HELLO sits in the kernel until first leaves and the
  // admission queue promotes it.
  std::thread closer([&first] {
    std::this_thread::sleep_for(milliseconds(50));
    (void)first.Close();
  });
  auto w2 = second.Hello("second");
  closer.join();
  ASSERT_TRUE(w2.ok()) << w2.status();
  (void)second.Close();
  auto w3 = third.Hello("third");
  ASSERT_TRUE(w3.ok()) << w3.status();
  // FIFO: the earlier waiter got the smaller session id.
  EXPECT_LT(w2->GetInt("session", -1), w3->GetInt("session", -1));
  EXPECT_EQ(server->metrics().sessions_rejected.load(), 0);
  (void)third.Close();
}

TEST(ServerAdmission, QueryInFlightCapRejectsTyped) {
  Server::Options options;
  options.max_queries_in_flight = 1;
  options.stream_delay_us = 2000;
  auto server = StartServer(options, ServerTable(200));
  SqltsClient client = MustConnect(*server);
  Json stream = Json::Obj();
  stream.Set("type", Json::Str("STREAM"));
  stream.Set("id", Json::Int(1));
  stream.Set("dataset", Json::Str("quotes"));
  stream.Set("query", Json::Str(kDip));
  ASSERT_TRUE(client.Send(stream).ok());
  auto start = client.Read();
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->GetString("type", ""), "STREAM_START");
  auto reply = client.Query(2, "quotes", kDip);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server->metrics().queries_rejected.load(), 1);
}

// ---------------------------------------------------------------------------
// Streams: cancellation, governance, mid-stream joins
// ---------------------------------------------------------------------------

TEST(ServerStream, CancelMidStreamLeavesServerHealthy) {
  Server::Options options;
  options.stream_delay_us = 2000;
  auto server = StartServer(options, ServerTable(400));
  SqltsClient client = MustConnect(*server);
  Json stream = Json::Obj();
  stream.Set("type", Json::Str("STREAM"));
  stream.Set("id", Json::Int(7));
  stream.Set("dataset", Json::Str("quotes"));
  stream.Set("query", Json::Str(kDip));
  ASSERT_TRUE(client.Send(stream).ok());
  auto start = client.Read();
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->GetString("type", ""), "STREAM_START");

  Json cancel = Json::Obj();
  cancel.Set("type", Json::Str("CANCEL"));
  cancel.Set("id", Json::Int(7));
  ASSERT_TRUE(client.Send(cancel).ok());
  while (true) {
    auto reply = client.Read();
    ASSERT_TRUE(reply.ok()) << reply.status();
    const std::string type = reply->GetString("type", "");
    if (type == "ROW") continue;
    ASSERT_EQ(type, "CANCELLED");
    EXPECT_EQ(reply->GetInt("id", -1), 7);
    break;
  }
  EventuallyTrue([&] { return server->metrics().queries_in_flight.load() == 0; },
                 "in-flight drains after cancel");
  EXPECT_GE(server->metrics().queries_cancelled.load(), 1);
  EventuallyTrue([&] { return server->num_epoch_caches() == 0; },
                 "epoch caches freed after cancel");
  // Server still serves this session.
  auto good = client.Query(8, "quotes", kDip);
  EXPECT_TRUE(good.ok()) << good.status();
}

TEST(ServerStream, CancelUnknownIdIsNotFound) {
  auto server = StartServer({});
  SqltsClient client = MustConnect(*server);
  Json cancel = Json::Obj();
  cancel.Set("type", Json::Str("CANCEL"));
  cancel.Set("id", Json::Int(42));
  ASSERT_TRUE(client.Send(cancel).ok());
  auto reply = client.Read();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->GetString("type", ""), "ERROR");
  EXPECT_EQ(reply->GetString("code", ""), "NotFound");
}

TEST(ServerStream, DeadlineSurfacesAsTypedError) {
  Server::Options options;
  options.stream_delay_us = 3000;
  auto server = StartServer(options, ServerTable(200));
  SqltsClient client = MustConnect(*server);
  Json stream = Json::Obj();
  stream.Set("type", Json::Str("STREAM"));
  stream.Set("id", Json::Int(1));
  stream.Set("dataset", Json::Str("quotes"));
  stream.Set("query", Json::Str(kDip));
  stream.Set("deadline_ms", Json::Int(1));
  ASSERT_TRUE(client.Send(stream).ok());
  auto start = client.Read();
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->GetString("type", ""), "STREAM_START");
  while (true) {
    auto reply = client.Read();
    ASSERT_TRUE(reply.ok()) << reply.status();
    const std::string type = reply->GetString("type", "");
    if (type == "ROW") continue;
    ASSERT_EQ(type, "ERROR");
    EXPECT_EQ(reply->GetString("code", ""), "DeadlineExceeded");
    break;
  }
  EventuallyTrue([&] { return server->metrics().queries_in_flight.load() == 0; },
                 "in-flight drains after deadline");
}

TEST(ServerStream, BufferBudgetSurfacesAsTypedError) {
  auto server = StartServer({}, ServerTable(200));
  SqltsClient client = MustConnect(*server);
  Json stream = Json::Obj();
  stream.Set("type", Json::Str("STREAM"));
  stream.Set("id", Json::Int(1));
  stream.Set("dataset", Json::Str("quotes"));
  stream.Set("query", Json::Str(kNeverCompleting));
  stream.Set("max_buffered_tuples", Json::Int(8));
  ASSERT_TRUE(client.Send(stream).ok());
  auto start = client.Read();
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->GetString("type", ""), "STREAM_START");
  while (true) {
    auto reply = client.Read();
    ASSERT_TRUE(reply.ok()) << reply.status();
    const std::string type = reply->GetString("type", "");
    if (type == "ROW") continue;
    ASSERT_EQ(type, "ERROR");
    EXPECT_EQ(reply->GetString("code", ""), "ResourceExhausted");
    break;
  }
  EventuallyTrue([&] { return server->metrics().queries_in_flight.load() == 0; },
                 "in-flight drains after budget trip");
}

TEST(ServerStream, MidStreamJoinerSeesExactlyItsSuffix) {
  const Table table = ServerTable(400);
  Server::Options options;
  options.stream_delay_us = 3000;
  auto server = StartServer(options, table);

  SqltsClient early = MustConnect(*server);
  Json stream = Json::Obj();
  stream.Set("type", Json::Str("STREAM"));
  stream.Set("id", Json::Int(1));
  stream.Set("dataset", Json::Str("quotes"));
  stream.Set("query", Json::Str(kDip));
  ASSERT_TRUE(early.Send(stream).ok());
  auto start1 = early.Read();
  ASSERT_TRUE(start1.ok());
  ASSERT_EQ(start1->GetString("type", ""), "STREAM_START");
  EXPECT_EQ(start1->GetInt("epoch", -1), 0);

  // Join the live generation mid-flight with a different query.
  std::this_thread::sleep_for(milliseconds(120));
  SqltsClient late = MustConnect(*server);
  Json stream2 = Json::Obj();
  stream2.Set("type", Json::Str("STREAM"));
  stream2.Set("id", Json::Int(2));
  stream2.Set("dataset", Json::Str("quotes"));
  stream2.Set("query", Json::Str(kDeepDip));
  ASSERT_TRUE(late.Send(stream2).ok());
  auto start2 = late.Read();
  ASSERT_TRUE(start2.ok());
  ASSERT_EQ(start2->GetString("type", ""), "STREAM_START");
  const int64_t epoch = start2->GetInt("epoch", -1);
  ASSERT_GT(epoch, 0);
  ASSERT_LT(epoch, table.num_rows());
  EXPECT_EQ(start2->GetInt("generation", -1), start1->GetInt("generation", -2));

  // Drain the late joiner to STREAM_END and compare against a
  // standalone streaming run over exactly rows [epoch, end).
  std::vector<std::string> got;
  while (true) {
    auto reply = late.Read();
    ASSERT_TRUE(reply.ok()) << reply.status();
    const std::string type = reply->GetString("type", "");
    if (type == "ROW") {
      got.push_back(reply->Find("row")->Dump());
      continue;
    }
    ASSERT_EQ(type, "STREAM_END") << reply->Dump();
    break;
  }
  EXPECT_EQ(got, OracleStreamRows(table, kDeepDip, epoch));

  // The early subscriber still runs to completion over the whole table.
  std::vector<std::string> early_rows;
  while (true) {
    auto reply = early.Read();
    ASSERT_TRUE(reply.ok()) << reply.status();
    const std::string type = reply->GetString("type", "");
    if (type == "ROW") {
      early_rows.push_back(reply->Find("row")->Dump());
      continue;
    }
    ASSERT_EQ(type, "STREAM_END");
    break;
  }
  EXPECT_EQ(early_rows, OracleStreamRows(table, kDip, 0));
  EventuallyTrue([&] { return server->num_epoch_caches() == 0; },
                 "epoch caches freed after generation end");
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ServerMetricsTest, SnapshotConsistentAndDrainsToZero) {
  auto server = StartServer({});
  {
    SqltsClient a = MustConnect(*server);
    SqltsClient b = MustConnect(*server);
    ASSERT_TRUE(a.Hello("alpha").ok());
    ASSERT_TRUE(b.Hello("beta").ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(a.Query(10 + i, "quotes", kDip).ok());
      ASSERT_TRUE(b.Query(20 + i, "quotes", kDeepDip).ok());
    }
    // One stream run to completion: the replay hub is what feeds the
    // shared-workload counters (solo batch runs bypass the catalog).
    Json stream = Json::Obj();
    stream.Set("type", Json::Str("STREAM"));
    stream.Set("id", Json::Int(30));
    stream.Set("dataset", Json::Str("quotes"));
    stream.Set("query", Json::Str(kDip));
    ASSERT_TRUE(b.Send(stream).ok());
    while (true) {
      auto reply = b.Read();
      ASSERT_TRUE(reply.ok()) << reply.status();
      const std::string type = reply->GetString("type", "");
      if (type == "STREAM_END") break;
      ASSERT_TRUE(type == "STREAM_START" || type == "ROW") << reply->Dump();
    }
    // METRICS over the wire, while sessions are live.
    Json req = Json::Obj();
    req.Set("type", Json::Str("METRICS"));
    ASSERT_TRUE(a.Send(req).ok());
    auto reply = a.Read();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->GetString("type", ""), "METRICS");
    const Json* m = reply->Find("metrics");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->Find("sessions")->GetInt("active", -1), 2);
    EXPECT_EQ(m->Find("queries")->GetInt("completed", -1), 7);
    EXPECT_EQ(m->Find("queries")->GetInt("in_flight", -1), 0);
    EXPECT_GT(m->Find("wire")->GetInt("rows_sent", -1), 0);
    EXPECT_GT(m->Find("workload")->GetInt("tuples_scanned", -1), 0);
    ASSERT_NE(m->Find("per_session"), nullptr);
    EXPECT_EQ(m->Find("per_session")->array().size(), 2u);
    (void)a.Close();
    (void)b.Close();
  }
  EventuallyTrue([&] { return server->metrics().sessions_active.load() == 0; },
                 "sessions drain");
  EXPECT_EQ(server->metrics().queries_in_flight.load(), 0);
  EXPECT_EQ(server->metrics().sessions_peak.load(), 2);
  EXPECT_EQ(server->num_epoch_caches(), 0);
}

TEST(ServerMetricsTest, StreamEndArrivesAfterItsCounters) {
  // The hub counts a stream completed before it sends STREAM_END, so a
  // client that reads the metrics as soon as STREAM_END arrives never
  // sees its stream still in flight.
  auto server = StartServer({});
  SqltsClient c = MustConnect(*server);
  ASSERT_TRUE(c.Hello("gamma").ok());
  for (int i = 0; i < 8; ++i) {
    const int64_t before =
        server->MetricsSnapshot().Find("queries")->GetInt("completed", -1);
    Json stream = Json::Obj();
    stream.Set("type", Json::Str("STREAM"));
    stream.Set("id", Json::Int(40 + i));
    stream.Set("dataset", Json::Str("quotes"));
    stream.Set("query", Json::Str(kDip));
    ASSERT_TRUE(c.Send(stream).ok());
    while (true) {
      auto reply = c.Read();
      ASSERT_TRUE(reply.ok()) << reply.status();
      const std::string type = reply->GetString("type", "");
      if (type == "STREAM_END") break;
      ASSERT_TRUE(type == "STREAM_START" || type == "ROW") << reply->Dump();
    }
    const Json m = server->MetricsSnapshot();
    EXPECT_EQ(m.Find("queries")->GetInt("in_flight", -1), 0) << "stream " << i;
    EXPECT_EQ(m.Find("queries")->GetInt("completed", -1), before + 1)
        << "stream " << i;
  }
  (void)c.Close();
}

/// Regression pin for the metrics locking contract (machine-checked by
/// GUARDED_BY under -Wthread-safety, exercised here under TSan via the
/// `server` CI job): the non-atomic workload/error aggregates are only
/// ever touched under the metrics mutex, so hammering NoteError /
/// AccumulateWorkload from many threads while another thread snapshots
/// must be race-free and lose no updates.
TEST(ServerMetricsTest, SnapshotRacesWritersWithoutTearing) {
  ServerMetrics metrics;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Json snap = metrics.Snapshot();
      const Json* workload = snap.Find("workload");
      ASSERT_NE(workload, nullptr);
      // Every AccumulateWorkload call adds one run and one scanned
      // tuple together under the lock, so a torn snapshot would let
      // the two drift apart.
      EXPECT_EQ(workload->GetInt("coalesced_runs", -1),
                workload->GetInt("tuples_scanned", -1));
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&metrics] {
      MultiQueryStats one;
      one.tuples_scanned = 1;
      for (int i = 0; i < kPerWriter; ++i) {
        metrics.AccumulateWorkload(one);
        metrics.NoteError("kInternal");
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();
  Json snap = metrics.Snapshot();
  EXPECT_EQ(snap.Find("workload")->GetInt("coalesced_runs", -1),
            kWriters * kPerWriter);
  EXPECT_EQ(snap.Find("workload")->GetInt("tuples_scanned", -1),
            kWriters * kPerWriter);
  EXPECT_EQ(snap.Find("errors_by_code")->GetInt("kInternal", -1),
            kWriters * kPerWriter);
  EXPECT_EQ(snap.Find("queries")->GetInt("failed", -1),
            kWriters * kPerWriter);
}

TEST(ServerMetricsTest, AbruptDisconnectStillDrains) {
  Server::Options options;
  options.stream_delay_us = 2000;
  auto server = StartServer(options, ServerTable(300));
  {
    SqltsClient client = MustConnect(*server);
    Json stream = Json::Obj();
    stream.Set("type", Json::Str("STREAM"));
    stream.Set("id", Json::Int(1));
    stream.Set("dataset", Json::Str("quotes"));
    stream.Set("query", Json::Str(kDip));
    ASSERT_TRUE(client.Send(stream).ok());
    auto start = client.Read();
    ASSERT_TRUE(start.ok());
    // Vanish mid-stream, no CLOSE: destructor slams the socket.
  }
  EventuallyTrue([&] { return server->metrics().sessions_active.load() == 0; },
                 "session reaped after abrupt disconnect");
  EventuallyTrue([&] { return server->metrics().queries_in_flight.load() == 0; },
                 "stream retired after abrupt disconnect");
  EventuallyTrue([&] { return server->num_epoch_caches() == 0; },
                 "epoch caches freed after abrupt disconnect");
}

// ---------------------------------------------------------------------------
// Shared execution across sessions
// ---------------------------------------------------------------------------

TEST(ServerSharing, ConcurrentClientsGetOracleIdenticalResults) {
  auto server = StartServer({});
  const Table table = ServerTable();
  const std::vector<std::string> queries = {kDip, kDeepDip, kDip, kDeepDip};
  std::vector<std::thread> clients;
  std::vector<Status> failures(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    clients.emplace_back([&, i] {
      auto client = SqltsClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures[i] = client.status();
        return;
      }
      (void)client->socket().SetRecvTimeout(20000);
      auto reply = client->Query(static_cast<int64_t>(i), "quotes", queries[i]);
      if (!reply.ok()) {
        failures[i] = reply.status();
        return;
      }
      const std::vector<std::string> oracle = OracleRows(table, queries[i]);
      const Json* rows = reply->Find("rows");
      if (rows == nullptr || rows->array().size() != oracle.size()) {
        failures[i] = Status::Internal("row count mismatch");
        return;
      }
      for (size_t r = 0; r < oracle.size(); ++r) {
        if (rows->array()[r].Dump() != oracle[r]) {
          failures[i] = Status::Internal("row mismatch at " +
                                         std::to_string(r));
          return;
        }
      }
      (void)client->Close();
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < failures.size(); ++i) {
    EXPECT_TRUE(failures[i].ok()) << "client " << i << ": " << failures[i];
  }
  EventuallyTrue([&] { return server->metrics().queries_in_flight.load() == 0; },
                 "in-flight drains");
}

// ---------------------------------------------------------------------------
// Client reconnect policy
// ---------------------------------------------------------------------------

TEST(ClientRetry, BackoffDoublesWithinCapAndJitterBounds) {
  RetryOptions options;
  options.backoff_ms = 100;
  options.max_backoff_ms = 800;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // Full delay before jitter: 100, 200, 400, 800, 800, ...
    int64_t full = 100;
    for (int i = 0; i < attempt && full < 800; ++i) full *= 2;
    // Jitter stays in [full/2, full] across many draws.
    uint64_t rng = 0x5eedULL;
    for (int draw = 0; draw < 64; ++draw) {
      const int64_t d = RetryBackoffMs(attempt, options, &rng);
      EXPECT_GE(d, full / 2) << "attempt " << attempt;
      EXPECT_LE(d, full) << "attempt " << attempt;
    }
  }
}

TEST(ClientRetry, BackoffIsDeterministicInTheSeed) {
  RetryOptions options;
  uint64_t a = 42, b = 42, c = 43;
  std::vector<int64_t> seq_a, seq_b, seq_c;
  for (int attempt = 0; attempt < 6; ++attempt) {
    seq_a.push_back(RetryBackoffMs(attempt, options, &a));
    seq_b.push_back(RetryBackoffMs(attempt, options, &b));
    seq_c.push_back(RetryBackoffMs(attempt, options, &c));
  }
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_NE(seq_a, seq_c);  // different seeds decorrelate
}

TEST(ClientRetry, OnlyIoErrorsAreTransient) {
  EXPECT_TRUE(IsTransientNetworkError(Status::IoError("connection refused")));
  EXPECT_FALSE(IsTransientNetworkError(Status::OK()));
  EXPECT_FALSE(IsTransientNetworkError(Status::InvalidArgument("bad query")));
  EXPECT_FALSE(IsTransientNetworkError(Status::ParseError("bad frame")));
  EXPECT_FALSE(
      IsTransientNetworkError(Status::ResourceExhausted("admission")));
  EXPECT_FALSE(IsTransientNetworkError(Status::Internal("bug")));
}

TEST(ClientRetry, ConnectWithRetryGivesUpAfterBudget) {
  // Grab an ephemeral port, then release it so nothing is listening.
  uint16_t port;
  {
    auto server = StartServer({});
    port = server->port();
  }
  RetryOptions options;
  options.retries = 2;
  options.backoff_ms = 1;
  options.max_backoff_ms = 2;
  auto client = SqltsClient::ConnectWithRetry("127.0.0.1", port, options);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kIoError);
}

TEST(ClientRetry, ConnectWithRetryRecoversWhenServerComesBack) {
  uint16_t port;
  {
    auto server = StartServer({});
    port = server->port();
  }
  // Bring the server back on the same port while the client backs off.
  std::unique_ptr<Server> revived;
  std::thread restarter([&] {
    std::this_thread::sleep_for(milliseconds(60));
    Server::Options options;
    options.port = port;
    revived = StartServer(options);
  });
  RetryOptions options;
  options.retries = 200;
  options.backoff_ms = 10;
  options.max_backoff_ms = 40;
  auto client = SqltsClient::ConnectWithRetry("127.0.0.1", port, options);
  restarter.join();
  ASSERT_TRUE(client.ok()) << client.status();
  (void)client->socket().SetRecvTimeout(20000);
  auto welcome = client->Hello("retry-test");
  ASSERT_TRUE(welcome.ok()) << welcome.status();
  EXPECT_TRUE(client->Close().ok());
}

}  // namespace
}  // namespace sqlts
