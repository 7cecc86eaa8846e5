#include "src/serve/wire.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "src/telemetry/json.h"

namespace affsched {
namespace {

TEST(WireTest, ParsesRequests) {
  WireRequest request;
  std::string error;
  ASSERT_TRUE(ParseWireRequest("{\"op\":\"submit\",\"spec\":\"smoke;reps=2\",\"jobs\":4}",
                               &request, &error));
  EXPECT_EQ(request.op, "submit");
  EXPECT_EQ(request.spec, "smoke;reps=2");
  EXPECT_EQ(request.jobs, 4u);

  ASSERT_TRUE(ParseWireRequest("{\"op\":\"ping\"}", &request, &error));
  EXPECT_EQ(request.op, "ping");
  EXPECT_EQ(request.spec, "");
  EXPECT_EQ(request.jobs, 0u);
}

TEST(WireTest, RejectsMalformedRequests) {
  WireRequest request;
  std::string error;
  EXPECT_FALSE(ParseWireRequest("", &request, &error));
  EXPECT_FALSE(ParseWireRequest("not json", &request, &error));
  EXPECT_FALSE(ParseWireRequest("[\"op\"]", &request, &error));
  EXPECT_FALSE(ParseWireRequest("{\"spec\":\"smoke\"}", &request, &error));
  EXPECT_FALSE(ParseWireRequest("{\"op\":42}", &request, &error));
  EXPECT_FALSE(ParseWireRequest("{\"op\":\"\"}", &request, &error));
}

TEST(WireTest, ErrorEventEscapes) {
  const std::string event = WireErrorEvent("bad \"spec\"\nline");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(event, &doc, &error)) << event;
  EXPECT_EQ(doc.Get("event")->string_value, "error");
  EXPECT_EQ(doc.Get("message")->string_value, "bad \"spec\"\nline");
}

TEST(WireTest, LineChannelFramesAcrossPartialReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineChannel client(fds[0]);
  LineChannel server(fds[1]);

  // Two lines in one write, and one line split across two writes.
  ASSERT_TRUE(client.WriteLine("first"));
  ASSERT_EQ(::write(client.fd(), "sec", 3), 3);
  std::string line;
  ASSERT_TRUE(server.ReadLine(&line));
  EXPECT_EQ(line, "first");
  ASSERT_EQ(::write(client.fd(), "ond\nthird\n", 10), 10);
  ASSERT_TRUE(server.ReadLine(&line));
  EXPECT_EQ(line, "second");
  ASSERT_TRUE(server.ReadLine(&line));
  EXPECT_EQ(line, "third");
}

TEST(WireTest, LineChannelSurfacesUnterminatedTailThenEof) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    LineChannel client(fds[0]);
    ASSERT_EQ(::write(client.fd(), "tail-no-newline", 15), 15);
  }  // destructor closes -> EOF on the server side
  LineChannel server(fds[1]);
  std::string line;
  ASSERT_TRUE(server.ReadLine(&line));
  EXPECT_EQ(line, "tail-no-newline");
  EXPECT_FALSE(server.ReadLine(&line));
}

TEST(WireTest, ListenAndConnectRoundTrip) {
  const std::string path = ::testing::TempDir() + "/wire_test.sock";
  std::string error;
  const int listen_fd = ListenUnix(path, &error);
  ASSERT_GE(listen_fd, 0) << error;
  // Binding over a stale socket file must work (daemon restart).
  std::thread server([&] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    LineChannel channel(fd);
    std::string line;
    ASSERT_TRUE(channel.ReadLine(&line));
    EXPECT_EQ(line, "hello");
    EXPECT_TRUE(channel.WriteLine("world"));
  });
  const int client_fd = ConnectUnix(path, &error);
  ASSERT_GE(client_fd, 0) << error;
  LineChannel channel(client_fd);
  ASSERT_TRUE(channel.WriteLine("hello"));
  std::string line;
  ASSERT_TRUE(channel.ReadLine(&line));
  EXPECT_EQ(line, "world");
  server.join();
  ::close(listen_fd);
  const int second = ListenUnix(path, &error);
  EXPECT_GE(second, 0) << error;
  ::close(second);
  ::unlink(path.c_str());
}

TEST(WireTest, ListenRejectsOverlongPaths) {
  std::string error;
  EXPECT_LT(ListenUnix(std::string(200, 'x'), &error), 0);
  EXPECT_FALSE(error.empty());
  EXPECT_LT(ConnectUnix("", &error), 0);
}

}  // namespace
}  // namespace affsched
