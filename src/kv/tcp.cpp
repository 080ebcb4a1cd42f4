#include "kv/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/error.hpp"
#include "kv/reactor.hpp"
#include "obs/trace.hpp"

namespace rnb::kv {
namespace {

constexpr std::string_view kCrlf = "\r\n";

/// Parse the <bytes> field of a storage command line ("set k f e BYTES
/// [pin]" / "cas k f e BYTES version"). Returns false for non-storage
/// verbs. Malformed numeric fields yield bytes=0 — the server will reject
/// the frame at parse time; framing just needs to terminate.
bool storage_bytes(std::string_view line, std::size_t& bytes) {
  std::size_t field = 0;
  std::string_view verb;
  while (!line.empty()) {
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    const std::size_t end = line.find(' ');
    const std::string_view token = line.substr(0, end);
    if (field == 0) {
      verb = token;
      if (verb != "set" && verb != "cas") return false;
    }
    if (field == 4) {
      std::from_chars(token.data(), token.data() + token.size(), bytes);
      return true;
    }
    if (end == std::string_view::npos) break;
    line.remove_prefix(end);
    ++field;
  }
  bytes = 0;
  return verb == "set" || verb == "cas";
}

/// The <bytes> field of a "VALUE <key> <flags> <bytes> [cas]" line; 0 when
/// it is missing or malformed.
std::size_t value_bytes(std::string_view line) {
  std::size_t bytes = 0;
  std::size_t field = 0;
  while (!line.empty() && field <= 3) {
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    const std::size_t sp = line.find(' ');
    const std::string_view token = line.substr(0, sp);
    if (field == 3)
      std::from_chars(token.data(), token.data() + token.size(), bytes);
    if (sp == std::string_view::npos) break;
    line.remove_prefix(sp);
    ++field;
  }
  return bytes;
}

/// Find CRLF at or after `from`, counting the bytes examined, and move
/// `from` to where the next search resumes: past the CRLF, or onto the
/// last byte (a CR whose LF has not arrived yet).
std::size_t find_crlf(const std::string& buffer, std::size_t& from,
                      std::uint64_t& scanned) {
  const std::size_t eol = buffer.find(kCrlf, from);
  if (eol == std::string::npos) {
    scanned += buffer.size() - from;
    if (buffer.size() > from) from = buffer.size() - 1;
    return eol;
  }
  scanned += eol + kCrlf.size() - from;
  from = eol + kCrlf.size();
  return eol;
}

/// Drop the consumed prefix [0, head) once it passes half the buffer (or
/// is all of it), so erasing costs no more than the bytes it follows.
/// Returns how far the remaining bytes moved down.
std::size_t compact(std::string& buffer, std::size_t head) {
  if (head == buffer.size()) {
    buffer.clear();
    return head;
  }
  if (head <= buffer.size() / 2) return 0;
  buffer.erase(0, head);
  return head;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("tcp: send failed");
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

bool FrameSplitter::next_frame(std::string& frame) {
  if (end_ == 0) {
    const std::size_t eol = find_crlf(buffer_, scan_, scanned_);
    if (eol == std::string::npos) return false;
    const std::string_view line(buffer_.data() + head_, eol - head_);
    std::size_t body = 0;
    end_ = eol + kCrlf.size();
    if (storage_bytes(line, body)) end_ += body + kCrlf.size();
  }
  if (buffer_.size() < end_) return false;
  frame.assign(buffer_, head_, end_ - head_);
  head_ = end_;
  end_ = 0;
  head_ -= compact(buffer_, head_);
  scan_ = head_;
  return true;
}

bool ReplySplitter::next_reply(std::string& reply) {
  for (;;) {
    if (line_ > buffer_.size()) return false;  // a data block is arriving
    if (scan_ < line_) scan_ = line_;
    const std::size_t eol = find_crlf(buffer_, scan_, scanned_);
    if (eol == std::string::npos) return false;
    const std::string_view line(buffer_.data() + line_, eol - line_);
    const bool first = line_ == head_;
    line_ = eol + kCrlf.size();
    // A reply is one simple line unless it opens with a VALUE line; then
    // it runs, data blocks skipped by their declared size, to END.
    if ((first && !line.starts_with("VALUE ")) || line == "END") break;
    line_ += value_bytes(line) + kCrlf.size();
  }
  reply.assign(buffer_, head_, line_ - head_);
  head_ = line_;
  head_ -= compact(buffer_, head_);
  line_ = scan_ = head_;
  return true;
}

TcpServerCore::TcpServerCore(RequestSink sink, std::uint16_t port)
    : sink_(sink) {
  RNB_REQUIRE(sink_.valid());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("tcp: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
    throw std::runtime_error("tcp: bind() failed");
  // Full SOMAXCONN backlog: the multithreaded load generator opens its
  // whole connection fan (threads x connections) in a burst, and a short
  // backlog would silently refuse part of it.
  if (::listen(listen_fd_, SOMAXCONN) < 0)
    throw std::runtime_error("tcp: listen() failed");
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpServerCore::~TcpServerCore() { shutdown(); }

void TcpServerCore::start() {
  acceptor_ = std::thread([this] { accept_loop(); });
}

void TcpServerCore::shutdown() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> to_join;
  {
    std::lock_guard lock(threads_mu_);
    // Unblock connection readers whose peers are still connected (a live
    // client holding its socket open would otherwise park the join below
    // in recv() forever). The threads close their own fds on the way out.
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    to_join.swap(connections_);
  }
  for (auto& t : to_join) t.join();
}

void TcpServerCore::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;  // orderly shutdown closed the listener
      if (errno == EINTR || errno == ECONNABORTED) continue;  // transient
      // A real listener failure (EMFILE, ENFILE, EBADF, ...): surface it
      // instead of silently ending the accept loop with clients unserved.
      accept_errors_.fetch_add(1);
      std::perror("tcp: accept() failed");
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1);
    std::lock_guard lock(threads_mu_);
    connection_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void TcpServerCore::retire_connection(int fd) {
  // Erase before close, both under the lock: once the fd leaves the list
  // it can no longer race shutdown()'s wakeup, and the number cannot be
  // reused by a concurrent dial until the close itself.
  const std::lock_guard lock(threads_mu_);
  std::erase(connection_fds_, fd);
  ::close(fd);
}

void TcpServerCore::connection_loop(int fd) {
  connections_active_.fetch_add(1);
  const auto active_guard = std::unique_ptr<void, void (*)(void*)>(
      this, [](void* self) {
        static_cast<TcpServerCore*>(self)->connections_active_.fetch_sub(1);
      });
  FrameSplitter splitter;
  std::string frame, response;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed (or shutdown)
    splitter.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    while (splitter.next_frame(frame)) {
      // The sharded engine synchronizes internally; connection threads
      // whose keys hit different shards proceed in parallel.
      HandleInfo info;
      sink_.handle(frame, response, &info);
      try {
        // The socket write happens after the server transaction span has
        // closed; re-adopting the frame's tag makes the "write" span a
        // sibling of that transaction under the same client span.
        obs::ScopedTraceContext adopt({info.trace.trace_id,
                                       info.trace.span_id,
                                       info.trace.sampled});
        obs::SpanScope write_span("write", "server");
        write_span.arg("bytes", static_cast<std::int64_t>(response.size()));
        write_all(fd, response);
      } catch (const std::runtime_error&) {
        retire_connection(fd);
        return;
      }
    }
  }
  retire_connection(fd);
}

TcpKvConnection::TcpKvConnection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("tcp: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    throw std::runtime_error("tcp: connect() failed");
  }
}

TcpKvConnection::~TcpKvConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpKvConnection::roundtrip(std::string_view request,
                                std::string& response) {
  write_all(fd_, request);
  read_response(response);
}

void TcpKvConnection::send(std::string_view frame) { write_all(fd_, frame); }

void TcpKvConnection::read_response(std::string& response) {
  response.clear();
  char chunk[16384];
  while (!inbox_.next_reply(response)) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("tcp: connection closed mid-response");
    inbox_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
  }
}

TcpFleet::Member TcpFleet::boot(std::size_t bytes_per_server,
                                std::size_t shards_per_server,
                                ServerModel model) {
  if (model == ServerModel::kReactor) {
    auto server = std::make_unique<ReactorKvServer>(bytes_per_server,
                                                    std::uint16_t{0},
                                                    shards_per_server);
    ShardedKvServer* engine = &server->server();
    return Member{std::move(server), engine};
  }
  auto server = std::make_unique<TcpKvServer>(bytes_per_server,
                                              std::uint16_t{0},
                                              shards_per_server);
  ShardedKvServer* engine = &server->server();
  return Member{std::move(server), engine};
}

TcpFleet::TcpFleet(ServerId num_servers, std::size_t bytes_per_server,
                   std::size_t shards_per_server, ServerModel model) {
  RNB_REQUIRE(num_servers > 0);
  servers_.reserve(num_servers);
  for (ServerId s = 0; s < num_servers; ++s)
    servers_.push_back(boot(bytes_per_server, shards_per_server, model));
}

ServerId TcpFleet::add_server(std::size_t bytes_per_server,
                              std::size_t shards_per_server,
                              ServerModel model) {
  // Bind + spawn outside the lock; only the append itself is serialized.
  Member member = boot(bytes_per_server, shards_per_server, model);
  const std::lock_guard lock(mu_);
  servers_.push_back(std::move(member));
  return static_cast<ServerId>(servers_.size() - 1);
}

std::vector<std::uint16_t> TcpFleet::ports() const {
  const std::lock_guard lock(mu_);
  std::vector<std::uint16_t> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back(s.wire->port());
  return out;
}

TcpClientTransport::Slot::Early* TcpClientTransport::Slot::find(
    std::uint64_t seq) {
  for (Early& e : early)
    if (e.state != Early::State::kFree && e.seq == seq) return &e;
  return nullptr;
}

TcpClientTransport::Slot::Early& TcpClientTransport::Slot::spare() {
  for (Early& e : early)
    if (e.state == Early::State::kFree) return e;
  return early.emplace_back();
}

void TcpClientTransport::Slot::drop() {
  connection.reset();
  read = sent;
  // Cancelled frames have nothing left to drain; parked replies stay.
  for (Early& e : early)
    if (e.state == Early::State::kCancelled) e.state = Early::State::kFree;
}

TcpClientTransport::TcpClientTransport(
    const std::vector<std::uint16_t>& ports)
    : ports_(ports), slots_(ports.size()) {
  RNB_REQUIRE(!ports.empty());
  for (ServerId s = 0; s < slots_.size(); ++s)
    if (!dial(s, slots_[s])) throw std::runtime_error("tcp: connect() failed");
}

TcpClientTransport::TcpClientTransport(
    TcpFleet& fleet, std::span<const std::atomic<bool>> active,
    ServerId capacity)
    : fleet_(&fleet), active_(active), slots_(capacity) {
  RNB_REQUIRE(capacity > 0 && active.size() >= capacity);
  // Serving slots dial now, as a fixed fleet's would; the rest on first
  // use.
  for (ServerId s = 0; s < capacity; ++s)
    if (active_[s].load(std::memory_order_relaxed)) dial(s, slots_[s]);
}

TcpClientTransport::~TcpClientTransport() = default;

bool TcpClientTransport::dial(ServerId s, Slot& slot) {
  if (slot.connection != nullptr) return true;
  std::uint16_t port = 0;
  if (fleet_ == nullptr) {
    port = ports_[s];
  } else {
    if (s >= fleet_->num_servers()) return false;  // not booted yet
    port = fleet_->port(s);
  }
  try {
    slot.connection = std::make_unique<TcpKvConnection>(port);
  } catch (const std::runtime_error&) {
    return false;  // refused: a stopped or leaving server
  }
  return true;
}

std::uint64_t TcpClientTransport::send(ServerId s, Slot& slot,
                                       std::string_view frame) {
  const std::uint64_t seq = slot.sent++;
  const bool serving =
      active_.empty() || active_[s].load(std::memory_order_relaxed);
  if (!serving || !dial(s, slot)) {
    slot.drop();
    return seq;
  }
  try {
    slot.connection->send(frame);
  } catch (const std::runtime_error&) {
    slot.drop();
  }
  return seq;
}

TransportResult TcpClientTransport::receive(Slot& slot, std::uint64_t seq,
                                            std::int64_t sent_ns,
                                            std::string& response) {
  if (seq < slot.read) {
    Slot::Early* parked = slot.find(seq);
    response.clear();
    if (parked == nullptr) return {TransportStatus::kServerDown, 0.0};
    parked->state = Slot::Early::State::kFree;
    response.swap(parked->reply);
    return {TransportStatus::kOk,
            static_cast<double>(parked->arrived_ns - sent_ns) * 1e-9};
  }
  try {
    // Replies come back in send order: park (or drop, if cancelled) the
    // ones ahead of ours.
    for (; slot.read < seq; ++slot.read) {
      Slot::Early* cancelled = slot.find(slot.read);
      Slot::Early& e = cancelled != nullptr ? *cancelled : slot.spare();
      slot.connection->read_response(e.reply);
      // A cancelled reply is dropped; any other is parked, but only once
      // all of it is in.
      e.seq = slot.read;
      e.state = cancelled != nullptr ? Slot::Early::State::kFree
                                     : Slot::Early::State::kParked;
      e.arrived_ns = now_ns();
    }
    slot.connection->read_response(response);
    ++slot.read;
  } catch (const std::runtime_error&) {
    slot.drop();
    response.clear();
    return {TransportStatus::kServerDown, 0.0};
  }
  return {TransportStatus::kOk,
          static_cast<double>(now_ns() - sent_ns) * 1e-9};
}

TransportResult TcpClientTransport::roundtrip(ServerId s,
                                              std::string_view request,
                                              std::string& response) {
  RNB_REQUIRE(s < slots_.size());
  Slot& slot = slots_[s];
  const std::lock_guard lock(slot.mu);
  const std::int64_t t0 = now_ns();
  const std::uint64_t seq = send(s, slot, request);
  return receive(slot, seq, t0, response);
}

Ticket TcpClientTransport::issue(ServerId s, std::string_view frame) {
  RNB_REQUIRE(s < slots_.size());
  Slot& slot = slots_[s];
  const std::lock_guard lock(slot.mu);
  Ticket ticket{s, frame, 0, now_ns()};
  ticket.seq = send(s, slot, frame);
  return ticket;
}

TransportResult TcpClientTransport::collect(const Ticket& ticket,
                                            std::string& response) {
  Slot& slot = slots_[ticket.server];
  const std::lock_guard lock(slot.mu);
  return receive(slot, ticket.seq, ticket.issued_ns, response);
}

void TcpClientTransport::cancel(const Ticket& ticket) {
  Slot& slot = slots_[ticket.server];
  const std::lock_guard lock(slot.mu);
  if (ticket.seq < slot.read) {
    // Parked, or lost with a dropped connection.
    if (Slot::Early* parked = slot.find(ticket.seq))
      parked->state = Slot::Early::State::kFree;
    return;
  }
  Slot::Early& e = slot.spare();
  e.seq = ticket.seq;
  e.state = Slot::Early::State::kCancelled;
}

}  // namespace rnb::kv
