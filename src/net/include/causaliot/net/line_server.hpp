// Persistent-connection, line-framed TCP server on the SocketServer
// skeleton — the transport for the JSONL ingestion plane.
//
// Framing: UTF-8 lines terminated by '\n' (a trailing '\r' is
// stripped, so CRLF producers work). A connection stays open for any
// number of lines; per-connection ordering is preserved because one
// worker owns the connection for its whole lifetime. The handler
// returns an optional response line — the protocol is deliberately
// quiet on success (an acknowledged-per-line protocol cannot reach
// millions of events/s), so responses are reserved for errors and
// control-verb results. Responses generated while draining one recv
// batch are written back in a single send. Each recv batch also runs
// inside one util::BatchScope, so a handler's hand-offs (the ingest
// router's shard pushes) are made once per batch, before the responses
// are written.
//
// Slow-client defense mirrors the HTTP plane: SO_SNDTIMEO bounds every
// write, and a client that stalls past it is dropped (counted in
// stats().slow_client_drops) rather than wedging a worker. Reads use
// SO_RCVTIMEO only as a poll granularity — an idle persistent
// connection is legal; EAGAIN just re-checks the stopping flag.
//
// stop() is graceful: the listener closes, in-flight connections are
// woken via shutdown(2) and finish the lines already buffered, workers
// join. Lines received before stop() are all delivered to the handler.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

#include "causaliot/net/socket_server.hpp"
#include "causaliot/util/result.hpp"

namespace causaliot::net {

struct LineServerConfig {
  SocketServerConfig socket;
  /// Lines longer than this (without terminator) poison the connection:
  /// the server answers `oversized_response` and drops it, since the
  /// stream can no longer be framed reliably.
  std::size_t max_line_bytes = 1 << 16;
  /// Read poll granularity and write (slow-client) timeout.
  int io_timeout_ms = 5000;
  /// Written (plus '\n') before dropping an unframeable connection.
  std::string oversized_response = "ERR oversized-line";
  /// Written (plus '\n') to connections refused by the accept queue.
  std::string overload_response = "ERR overloaded";
};

class LineProtocolServer {
 public:
  /// Runs on a worker thread, possibly concurrently across connections
  /// (must be thread-safe). Returns the response line to write back
  /// (without '\n'), or nullopt for the quiet success path.
  using LineHandler =
      std::function<std::optional<std::string>(std::string_view line)>;

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_overflowed = 0;
    std::int64_t connections_active = 0;
    std::uint64_t lines_total = 0;
    std::uint64_t responses_total = 0;
    std::uint64_t slow_client_drops = 0;
    std::uint64_t oversized_drops = 0;
  };

  LineProtocolServer(LineServerConfig config, LineHandler handler);
  ~LineProtocolServer();

  LineProtocolServer(const LineProtocolServer&) = delete;
  LineProtocolServer& operator=(const LineProtocolServer&) = delete;

  util::Result<std::uint16_t> start();
  std::uint16_t port() const { return server_.port(); }
  bool running() const { return server_.running(); }
  /// Graceful shutdown (see file comment). Idempotent.
  void stop();

  Stats stats() const;

 private:
  void serve_connection(int fd);
  void refuse_connection(int fd);
  /// Drains every complete line currently in `buffer`; returns false
  /// when the connection must be dropped (oversized line, dead client).
  bool drain_lines(int fd, std::string& buffer);

  LineServerConfig config_;
  LineHandler handler_;
  net::SocketServer server_;

  // Live connection fds, so stop() can shutdown(2) them to wake workers
  // blocked in recv. close() always happens after erasing under the
  // mutex, so stop() never touches a recycled fd number.
  std::mutex active_mutex_;
  std::unordered_set<int> active_fds_;

  std::atomic<std::int64_t> active_{0};
  std::atomic<std::uint64_t> lines_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> slow_drops_{0};
  std::atomic<std::uint64_t> oversized_drops_{0};
};

}  // namespace causaliot::net
