// Tests for the socket layer (util/socket.h) and the daemon's accept-loop
// Server, run fully in-process: a Server on a background thread, real
// Unix-domain and loopback TCP clients in the test thread.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "data/database_io.h"
#include "serve/server.h"
#include "testing/db_builder.h"
#include "util/failpoint.h"
#include "util/json_reader.h"
#include "util/socket.h"

namespace pincer {
namespace {

// Unix-domain socket paths must fit sun_path (~108 bytes), so these live
// directly under /tmp rather than gtest's (potentially deep) TempDir.
std::string ShortSocketPath(const std::string& tag) {
  return "/tmp/pincer_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

TEST(Socket, WriteLineAndLineReaderRoundTrip) {
  const std::string path = ShortSocketPath("lines");
  StatusOr<UniqueFd> listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok()) << listener.status();
  // connect() completes against the backlog before accept() runs, so a
  // single thread can hold both ends.
  StatusOr<UniqueFd> client = ConnectUnix(path);
  ASSERT_TRUE(client.ok()) << client.status();
  StatusOr<UniqueFd> server_end = AcceptConnection(*listener);
  ASSERT_TRUE(server_end.ok()) << server_end.status();

  // Two writes, three lines: the reader must split on '\n', not on packet
  // boundaries.
  ASSERT_TRUE(WriteLine(*client, "alpha").ok());
  ASSERT_TRUE(WriteLine(*client, "beta\ngamma").ok());
  LineReader reader(*server_end);
  std::string line;
  ASSERT_TRUE(*reader.ReadLine(line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(*reader.ReadLine(line));
  EXPECT_EQ(line, "beta");
  ASSERT_TRUE(*reader.ReadLine(line));
  EXPECT_EQ(line, "gamma");

  // A line spanning many recv chunks, then a short line in the same write:
  // the search resumes where the previous chunk's ended, and restarts at
  // the buffer's front after the long line is consumed and compacted. The
  // write outgrows the socket buffer, so it runs on its own thread.
  std::string long_line(300 * 1024, 'x');
  for (size_t i = 0; i < long_line.size(); i += 997) long_line[i] = 'y';
  std::thread writer([&] {
    EXPECT_TRUE(WriteLine(*client, long_line + "\nomega").ok());
  });
  std::string long_read;
  std::string short_read;
  const StatusOr<bool> got_long = reader.ReadLine(long_read);
  const StatusOr<bool> got_short = reader.ReadLine(short_read);
  writer.join();
  ASSERT_TRUE(got_long.ok() && *got_long) << got_long.status();
  EXPECT_EQ(long_read, long_line);
  ASSERT_TRUE(got_short.ok() && *got_short) << got_short.status();
  EXPECT_EQ(short_read, "omega");

  // A final unterminated line before EOF still comes through as a line.
  const char tail[] = "unterminated";
  ASSERT_EQ(::send(client->get(), tail, sizeof(tail) - 1, 0),
            static_cast<ssize_t>(sizeof(tail) - 1));
  client->Reset();  // close -> EOF on the server end
  ASSERT_TRUE(*reader.ReadLine(line));
  EXPECT_EQ(line, "unterminated");
  const StatusOr<bool> eof = reader.ReadLine(line);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(*eof);

  std::remove(path.c_str());
}

TEST(Socket, ListenUnixReplacesAStaleSocketFile) {
  const std::string path = ShortSocketPath("stale");
  {
    StatusOr<UniqueFd> first = ListenUnix(path);
    ASSERT_TRUE(first.ok()) << first.status();
  }  // closed; the socket file is left behind as a stale artifact
  StatusOr<UniqueFd> second = ListenUnix(path);
  EXPECT_TRUE(second.ok()) << second.status();
  std::remove(path.c_str());
}

TEST(Socket, ListenUnixRejectsOverlongPaths) {
  const std::string path = "/tmp/" + std::string(200, 'x') + ".sock";
  const StatusOr<UniqueFd> listener = ListenUnix(path);
  ASSERT_FALSE(listener.ok());
  EXPECT_EQ(listener.status().code(), StatusCode::kInvalidArgument);
}

TEST(Socket, BoundTcpPortResolvesPortZero) {
  StatusOr<UniqueFd> listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  StatusOr<uint16_t> port = BoundTcpPort(*listener);
  ASSERT_TRUE(port.ok()) << port.status();
  EXPECT_GT(*port, 0);
  StatusOr<UniqueFd> client = ConnectTcp(*port);
  EXPECT_TRUE(client.ok()) << client.status();
}

// Server fixture: one tiny resident database, server thread, client
// helpers.
class ServeSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_path_ = ::testing::TempDir() + "/pincer_serve_socket_" +
               std::to_string(::getpid()) + ".basket";
    const TransactionDatabase db = MakePlantedDatabase(
        /*num_items=*/16, /*num_transactions=*/120, /*num_planted=*/2,
        /*pattern_size=*/4, /*pattern_frequency=*/0.4,
        /*noise_probability=*/0.05, /*seed=*/9);
    ASSERT_TRUE(WriteDatabaseToFile(db, db_path_).ok());
    ServerOptions options;
    options.databases = {{"db", db_path_}};
    ASSERT_TRUE(service_.Init(options).ok());
    server_.emplace(service_);
  }

  void TearDown() override {
    failpoint::DisarmAll();
    if (serve_thread_.joinable()) {
      server_->Shutdown();
      serve_thread_.join();
    }
    std::remove(db_path_.c_str());
    if (!socket_path_.empty()) std::remove(socket_path_.c_str());
  }

  void StartUnix() {
    socket_path_ = ShortSocketPath("serve");
    ASSERT_TRUE(server_->ListenUnix(socket_path_).ok());
    StartThread();
  }

  void StartTcp() {
    ASSERT_TRUE(server_->ListenTcp(0).ok());
    ASSERT_GT(server_->port(), 0);
    StartThread();
  }

  void StartThread() {
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  UniqueFd Connect() {
    StatusOr<UniqueFd> conn = socket_path_.empty()
                                  ? ConnectTcp(server_->port())
                                  : ConnectUnix(socket_path_);
    EXPECT_TRUE(conn.ok()) << conn.status();
    return conn.ok() ? std::move(*conn) : UniqueFd();
  }

  // One request/response exchange on an established connection.
  std::string Exchange(const UniqueFd& conn, const std::string& request) {
    EXPECT_TRUE(WriteLine(conn, request).ok());
    LineReader reader(conn);
    std::string response;
    const StatusOr<bool> got = reader.ReadLine(response);
    EXPECT_TRUE(got.ok() && *got) << "no response to: " << request;
    return response;
  }

  bool ResponseOk(const std::string& response) {
    const StatusOr<JsonValue> parsed = ParseJson(response);
    if (!parsed.ok()) return false;
    const JsonValue* ok = parsed->Find("ok");
    return ok != nullptr && ok->AsBool().value_or(false);
  }

  std::string db_path_;
  std::string socket_path_;
  MiningService service_;
  std::optional<Server> server_;
  std::thread serve_thread_;
  Status serve_status_ = Status::Internal("Serve() never ran");
};

TEST_F(ServeSocketTest, UnixSessionServesMultipleRequestsThenShutsDown) {
  StartUnix();
  UniqueFd conn = Connect();
  ASSERT_TRUE(conn.valid());

  // Several requests on ONE connection: ping, list, mine, and a protocol
  // error that must produce an error response, not a hangup.
  EXPECT_TRUE(ResponseOk(Exchange(conn, R"({"op":"ping","id":"s1"})")));
  EXPECT_TRUE(ResponseOk(Exchange(conn, R"({"op":"list"})")));
  const std::string mine = Exchange(
      conn, R"({"op":"mine","database":"db","min_support":0.2})");
  EXPECT_TRUE(ResponseOk(mine));
  EXPECT_NE(mine.find("\"mfs\""), std::string::npos);
  EXPECT_FALSE(ResponseOk(Exchange(conn, "not json")));
  EXPECT_TRUE(ResponseOk(Exchange(conn, R"({"op":"ping"})")));

  conn.Reset();
  server_->Shutdown();
  serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_;
}

TEST_F(ServeSocketTest, TcpClientsRunConcurrently) {
  StartTcp();
  constexpr int kClients = 4;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, i, &responses] {
      StatusOr<UniqueFd> conn = ConnectTcp(server_->port());
      ASSERT_TRUE(conn.ok()) << conn.status();
      responses[i] = Exchange(
          *conn, R"({"op":"mine","database":"db","min_support":0.2})");
    });
  }
  for (std::thread& client : clients) client.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(ResponseOk(responses[i])) << responses[i];
  }
  // All four asked the same query; every payload must be identical (the
  // first mined, the rest hit the cache or waited and re-looked-up).
  for (int i = 1; i < kClients; ++i) {
    const auto mfs = [](const std::string& s) {
      const size_t begin = s.find("\"mfs\"");
      return s.substr(begin, s.find("\"query\"") - begin);
    };
    EXPECT_EQ(mfs(responses[i]), mfs(responses[0]));
  }
}

TEST_F(ServeSocketTest, ShutdownOpStopsTheServerFromAClient) {
  StartUnix();
  UniqueFd conn = Connect();
  ASSERT_TRUE(conn.valid());
  EXPECT_TRUE(
      ResponseOk(Exchange(conn, R"({"op":"shutdown","id":"bye"})")));
  // The ack is written before the server begins stopping; Serve() must now
  // return cleanly on its own, with no Shutdown() call from this thread.
  serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_;
  EXPECT_TRUE(service_.shutdown_requested());
}

TEST_F(ServeSocketTest, ShutdownWakesAnIdleSession) {
  StartUnix();
  UniqueFd conn = Connect();
  ASSERT_TRUE(conn.valid());
  EXPECT_TRUE(ResponseOk(Exchange(conn, R"({"op":"ping"})")));
  // The session is now parked in recv. Shutdown must unblock it and join —
  // if it doesn't, this test hangs and the suite times out.
  server_->Shutdown();
  serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_;
}

TEST(Server, ServeWithoutAListenerFailsFast) {
  MiningService service;  // uninitialized is fine: Serve checks the listener
  Server server(service);
  const Status status = server.Serve();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// Socket failpoints (S1): the error paths recv/send/accept can hit in
// production fire deterministically when armed.
TEST(SocketFailpoints, ReadWriteAndAcceptSurfaceInjectedIoErrors) {
  const std::string path = ShortSocketPath("failpoints");
  StatusOr<UniqueFd> listener = ListenUnix(path);
  ASSERT_TRUE(listener.ok()) << listener.status();
  StatusOr<UniqueFd> client = ConnectUnix(path);
  ASSERT_TRUE(client.ok()) << client.status();

  // accept: the injected failure precedes the real accept, so the queued
  // connection survives and the retry succeeds.
  failpoint::Arm("socket.accept",
                 {failpoint::Trigger::Once(), failpoint::Effect::kIoError});
  StatusOr<UniqueFd> failed = AcceptConnection(*listener);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  StatusOr<UniqueFd> server_end = AcceptConnection(*listener);
  ASSERT_TRUE(server_end.ok()) << server_end.status();

  failpoint::Arm("socket.write",
                 {failpoint::Trigger::Once(), failpoint::Effect::kIoError});
  EXPECT_EQ(WriteLine(*client, "dropped").code(), StatusCode::kIoError);
  ASSERT_TRUE(WriteLine(*client, "delivered").ok());

  LineReader reader(*server_end);
  std::string line;
  failpoint::Arm("socket.read",
                 {failpoint::Trigger::Once(), failpoint::Effect::kIoError});
  const StatusOr<bool> got = reader.ReadLine(line);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  // The failure was injected before any bytes were consumed; the line is
  // still there for the retry.
  const StatusOr<bool> retried = reader.ReadLine(line);
  ASSERT_TRUE(retried.ok() && *retried) << retried.status();
  EXPECT_EQ(line, "delivered");

  failpoint::DisarmAll();
  std::remove(path.c_str());
}

// S1: one failed accept must not kill the daemon — the accept loop rides
// out transient failures and serves the next connection.
TEST_F(ServeSocketTest, ServerSurvivesATransientAcceptFailure) {
  // Armed before Serve() starts: the accept loop's FIRST iteration fails
  // with the injected IoError, and the loop must ride it out and accept
  // this connection on the next iteration.
  failpoint::Arm("socket.accept",
                 {failpoint::Trigger::Once(), failpoint::Effect::kIoError});
  StartUnix();
  UniqueFd conn = Connect();
  ASSERT_TRUE(conn.valid());
  EXPECT_TRUE(ResponseOk(Exchange(conn, R"({"op":"ping"})")));
  EXPECT_EQ(failpoint::FireCount("socket.accept"), 1u);
  failpoint::DisarmAll();
}

// S3: a session that goes silent past the idle timeout is disconnected —
// its thread and fd are freed — while the server keeps serving new
// connections.
TEST_F(ServeSocketTest, IdleTimeoutDisconnectsASilentSession) {
  server_->set_idle_timeout_ms(150);
  StartUnix();
  UniqueFd conn = Connect();
  ASSERT_TRUE(conn.valid());
  EXPECT_TRUE(ResponseOk(Exchange(conn, R"({"op":"ping"})")));

  // Send nothing: the server must close this session on its own.
  LineReader reader(conn);
  std::string line;
  const StatusOr<bool> got = reader.ReadLine(line);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(*got) << "expected EOF from an idle-timed-out session, got: "
                     << line;

  // The server is still alive and accepting.
  UniqueFd fresh = Connect();
  ASSERT_TRUE(fresh.valid());
  EXPECT_TRUE(ResponseOk(Exchange(fresh, R"({"op":"ping"})")));
}

}  // namespace
}  // namespace pincer
