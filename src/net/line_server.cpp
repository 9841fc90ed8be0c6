#include "causaliot/net/line_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "causaliot/net/socket_io.hpp"
#include "causaliot/util/batch_scope.hpp"

namespace causaliot::net {

LineProtocolServer::LineProtocolServer(LineServerConfig config,
                                       LineHandler handler)
    : config_(std::move(config)),
      handler_(std::move(handler)),
      server_(
          config_.socket, [this](int fd) { serve_connection(fd); },
          [this](int fd) { refuse_connection(fd); }) {}

LineProtocolServer::~LineProtocolServer() { stop(); }

util::Result<std::uint16_t> LineProtocolServer::start() {
  return server_.start();
}

void LineProtocolServer::stop() {
  {
    // Wake workers blocked in recv on a persistent connection; they
    // observe EOF, finish the lines already buffered, and exit.
    std::lock_guard<std::mutex> lock(active_mutex_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  server_.stop();
}

LineProtocolServer::Stats LineProtocolServer::stats() const {
  Stats out;
  out.connections_accepted = server_.connections_accepted();
  out.connections_overflowed = server_.connections_overflowed();
  out.connections_active = active_.load(std::memory_order_relaxed);
  out.lines_total = lines_.load(std::memory_order_relaxed);
  out.responses_total = responses_.load(std::memory_order_relaxed);
  out.slow_client_drops = slow_drops_.load(std::memory_order_relaxed);
  out.oversized_drops = oversized_drops_.load(std::memory_order_relaxed);
  return out;
}

void LineProtocolServer::refuse_connection(int fd) {
  set_io_timeout(fd, config_.io_timeout_ms);
  write_all(fd, config_.overload_response + "\n");
  ::close(fd);
}

bool LineProtocolServer::drain_lines(int fd, std::string& buffer) {
  std::string responses;
  std::size_t start = 0;
  bool drop = false;
  {
    // One batch per read chunk: what the handler stages is handed off
    // when the scope closes, before the responses go out.
    util::BatchScope chunk;
    for (;;) {
      const std::size_t newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      std::string_view line(buffer.data() + start, newline - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = newline + 1;
      if (line.size() > config_.max_line_bytes) {
        oversized_drops_.fetch_add(1, std::memory_order_relaxed);
        responses += config_.oversized_response;
        responses += '\n';
        drop = true;
        break;
      }
      lines_.fetch_add(1, std::memory_order_relaxed);
      if (std::optional<std::string> response = handler_(line)) {
        responses_.fetch_add(1, std::memory_order_relaxed);
        responses += *response;
        responses += '\n';
      }
    }
  }
  buffer.erase(0, start);
  if (!drop && buffer.size() > config_.max_line_bytes) {
    // The partial line already exceeds the cap with no terminator in
    // sight: the stream cannot be re-framed, poison the connection.
    oversized_drops_.fetch_add(1, std::memory_order_relaxed);
    responses += config_.oversized_response;
    responses += '\n';
    drop = true;
  }
  if (!responses.empty() && !write_all(fd, responses)) {
    slow_drops_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return !drop;
}

void LineProtocolServer::serve_connection(int fd) {
  set_io_timeout(fd, config_.io_timeout_ms);
  set_nodelay(fd);
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    active_fds_.insert(fd);
  }
  active_.fetch_add(1, std::memory_order_relaxed);

  std::string buffer;
  constexpr std::size_t kChunk = 64 * 1024;
  for (;;) {
    const std::size_t old_size = buffer.size();
    buffer.resize(old_size + kChunk);
    const ssize_t n = ::recv(fd, buffer.data() + old_size, kChunk, 0);
    buffer.resize(old_size + (n > 0 ? static_cast<std::size_t>(n) : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && !server_.stopping()) {
        continue;  // idle persistent connection: keep waiting
      }
      break;  // hard error, or winding down
    }
    if (n == 0) {
      // EOF. A final unterminated line is still a line — clients that
      // pipe a file without a trailing newline lose nothing.
      if (!buffer.empty() && buffer.size() <= config_.max_line_bytes) {
        std::string_view tail(buffer);
        if (tail.back() == '\r') tail.remove_suffix(1);
        lines_.fetch_add(1, std::memory_order_relaxed);
        if (std::optional<std::string> response = handler_(tail)) {
          responses_.fetch_add(1, std::memory_order_relaxed);
          if (!write_all(fd, *response + "\n")) {
            slow_drops_.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      break;
    }
    if (!drain_lines(fd, buffer)) break;
  }

  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    active_fds_.erase(fd);
    ::close(fd);
  }
  active_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace causaliot::net
