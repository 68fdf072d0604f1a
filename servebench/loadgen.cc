#include "loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>

namespace servebench {
namespace {

constexpr double kResidentGapS = 0.05;
constexpr double kSampleGapS = 0.0005;
constexpr double kSliceS = 0.5;

[[noreturn]] void DieErrno(const char* what) {
  std::fprintf(stderr, "servebench: %s: %s\n", what, std::strerror(errno));
  std::exit(2);
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) DieErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    DieErrno("connect");
  }
  // The client never delays its own requests; any batching delay that
  // shows in the timings is the server's.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// Variant of `version` for a document with `variants` versions: mid-run
// re-LOADs step through them in order.
int VariantOf(int version, size_t variants) {
  return static_cast<int>(static_cast<size_t>(version) % variants);
}

bool TreeMatches(const Document& doc, int query, int first_version,
                 int last_version, uint64_t tree) {
  for (int v = first_version; v <= last_version; ++v) {
    if (doc.variants[VariantOf(v, doc.variants.size())].expected[query] ==
        tree) {
      return true;
    }
  }
  return false;
}

std::string Mismatch(const Document& doc, int query, int first_version,
                     int last_version, const std::string& line) {
  std::string expected;
  for (int v = first_version; v <= last_version; ++v) {
    const size_t variant = static_cast<size_t>(VariantOf(v, doc.variants.size()));
    expected += (expected.empty() ? "" : " or ") +
                std::to_string(doc.variants[variant].expected[query]) +
                " (version " + std::to_string(v) + ")";
  }
  return "oracle mismatch: " + doc.name + " " + doc.queries[query] +
         " expected tree=" + expected + ", got: " + line;
}

struct Outstanding {
  Request request;
  int64_t start_ns = 0;   // scheduled (open loop) or sent (closed loop)
  int first_version = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  xcq::server::LineFramer framer{size_t{1} << 26};
  ReplyAssembler assembler;
  std::deque<Outstanding> pending;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BlockingClient::BlockingClient(uint16_t port) : fd_(Connect(port)) {}

BlockingClient::~BlockingClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::vector<std::string> BlockingClient::Call(const std::string& wire) {
  size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::write(fd_, wire.data() + off, wire.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      DieErrno("write");
    }
    off += static_cast<size_t>(n);
  }
  std::vector<std::string> reply;
  char buf[65536];
  for (;;) {
    std::string line;
    while (framer_.NextLine(&line) == xcq::server::LineFramer::Next::kLine) {
      if (assembler_.Feed(std::move(line), &reply)) return reply;
    }
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) DieErrno("read (server closed the connection)");
    framer_.Append(std::string_view(buf, static_cast<size_t>(n)));
  }
}

std::string CheckReply(const Workload& workload, const Request& request,
                       int first_version, int last_version,
                       const std::vector<std::string>& reply) {
  const Document& doc = workload.docs[request.doc];
  const std::string& head = reply.front();
  if (head.rfind("OK", 0) != 0) return head;
  switch (request.kind) {
    case Request::Kind::kLoad:
      return head.rfind("OK loaded ", 0) == 0 ? "" : "bad LOAD reply: " + head;
    case Request::Kind::kQuery: {
      uint64_t tree = 0;
      if (!Field(head, "tree=", &tree)) return "bad QUERY reply: " + head;
      if (!TreeMatches(doc, request.queries[0], first_version, last_version,
                       tree)) {
        return Mismatch(doc, request.queries[0], first_version, last_version,
                        head);
      }
      return "";
    }
    case Request::Kind::kBatch: {
      uint64_t n = 0;
      if (!ParseMultiLineHeader(head, &n) || n != request.queries.size() ||
          reply.size() != n + 1) {
        return "bad BATCH reply: " + head;
      }
      for (size_t i = 0; i < n; ++i) {
        const std::string& line = reply[i + 1];
        uint64_t index = 0;
        uint64_t tree = 0;
        const auto [end, ec] = std::from_chars(
            line.data(), line.data() + line.size(), index);
        if (ec != std::errc() || index != i || !Field(line, "tree=", &tree)) {
          return "bad BATCH line: " + line;
        }
        if (!TreeMatches(doc, request.queries[i], first_version, last_version,
                         tree)) {
          return Mismatch(doc, request.queries[i], first_version, last_version,
                          line);
        }
      }
      return "";
    }
  }
  return "unknown request";
}

LoadResult RunLoad(const Workload& workload, uint16_t port,
                   RequestStream* stream, const LoadOptions& options) {
  const WorkloadSpec& spec = workload.spec;
  const bool open = spec.loop == Loop::kOpen;
  const size_t doc_count = workload.docs.size();
  std::vector<Conn> conns(kConnections);
  for (Conn& conn : conns) {
    conn.fd = Connect(port);
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
  }
  std::vector<int> version(doc_count, 0);
  std::vector<bool> loading(doc_count, false);  // LOAD sent, unanswered

  LoadResult result;
  result.seconds = options.seconds;
  result.ok_per_second.assign(static_cast<size_t>(options.seconds), 0);
  const int64_t t0 = NowNs();
  const int64_t t_end = t0 + static_cast<int64_t>(options.seconds * 1e9);
  const int64_t drain_deadline = t_end + int64_t{30} * 1000000000;
  const int64_t slo_ns = static_cast<int64_t>(spec.slo_ms * 1e6);
  OpenLoopSchedule schedule(t0, t_end, spec.offered_rps, options.seed);
  size_t next_conn = 0;
  size_t outstanding = 0;
  StepMean resident(2 * kResidentGapS);
  const int64_t resident_gap_ns = static_cast<int64_t>(kResidentGapS * 1e9);
  int64_t next_resident_ns = t0;
  const int64_t sample_gap_ns = static_cast<int64_t>(kSampleGapS * 1e9);
  int64_t next_sample_ns = t0;

  auto enqueue = [&](size_t c, Request request, int64_t start_ns) {
    Conn& conn = conns[c];
    if (request.kind == Request::Kind::kLoad) loading[request.doc] = true;
    Outstanding item;
    item.first_version = version[request.doc];
    item.start_ns = start_ns;
    conn.out += request.wire;
    item.request = std::move(request);
    conn.pending.push_back(std::move(item));
    ++outstanding;
    ++result.attempted;
  };

  auto flush = [&](Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        DieErrno("write");
      }
      conn.out_off += static_cast<size_t>(n);
    }
    conn.out.clear();
    conn.out_off = 0;
  };

  auto complete = [&](size_t c, const std::vector<std::string>& reply,
                      int64_t now, bool sampled_slice) {
    Conn& conn = conns[c];
    if (conn.pending.empty()) {
      std::fprintf(stderr, "servebench: unexpected reply: %s\n",
                   reply.front().c_str());
      std::exit(2);
    }
    Outstanding item = std::move(conn.pending.front());
    conn.pending.pop_front();
    --outstanding;
    const Request& request = item.request;
    const int last_version = version[request.doc] + (loading[request.doc] ? 1 : 0);
    const std::string error = CheckReply(workload, request, item.first_version,
                                         last_version, reply);
    if (request.kind == Request::Kind::kLoad) {
      loading[request.doc] = false;
      if (error.empty()) ++version[request.doc];
    }
    if (!error.empty()) {
      ++result.failed;
      if (error.rfind("oracle mismatch", 0) == 0) ++result.mismatches;
      if (result.first_error.empty()) result.first_error = error;
    } else {
      const double ms = static_cast<double>(now - item.start_ns) / 1e6;
      if (now <= t_end) {
        ++result.ok_in_window;
        const size_t second = static_cast<size_t>((now - t0) / 1000000000);
        if (second < result.ok_per_second.size()) ++result.ok_per_second[second];
        (sampled_slice ? result.ok_sampled : result.ok_unsampled) += 1;
      }
      if (now - item.start_ns <= slo_ns) ++result.within_slo;
      result.all_ms.push_back(ms);
      switch (request.kind) {
        case Request::Kind::kQuery:
          result.query_ms.push_back(ms);
          break;
        case Request::Kind::kBatch:
          result.batch_ms.push_back(ms);
          break;
        case Request::Kind::kLoad:
          result.load_ms.push_back(ms);
          break;
      }
      if (request.kind != Request::Kind::kLoad) {
        for (size_t i = request.kind == Request::Kind::kBatch ? 1 : 0;
             i < reply.size(); ++i) {
          uint64_t splits = 0;
          double label = 0.0;
          if (Field(reply[i], "splits=", &splits)) result.splits += splits;
          if (Field(reply[i], "label_s=", &label)) result.label_s += label;
          ++result.query_replies;
        }
      }
    }
    if (!open && now < t_end) {
      enqueue(c, stream->Next(loading), now);
    }
  };

  std::vector<pollfd> fds(conns.size());
  std::vector<std::string> reply;
  char buf[65536];
  if (!open) {
    for (size_t c = 0; c < conns.size(); ++c) {
      enqueue(c, stream->Next(loading), t0);
    }
  }
  for (;;) {
    int64_t now = NowNs();
    const double t_rel = static_cast<double>(now - t0) / 1e9;
    const bool sampled_slice =
        options.sampler &&
        (static_cast<int64_t>(t_rel / kSliceS) % 2 == 1);
    if (open) {
      int64_t due = 0;
      while (schedule.PopDue(now, &due)) {
        const size_t c = next_conn;
        next_conn = (next_conn + 1) % conns.size();
        result.late_ms.push_back(static_cast<double>(now - due) / 1e6);
        enqueue(c, stream->Next(loading), due);
      }
    }
    for (Conn& conn : conns) flush(conn);
    // Samples are taken on a fixed tick, not on reply wakeups: right
    // after a reply the next request is still in the socket, so samples
    // tied to replies would undercount what the server holds.
    if (sampled_slice && now >= next_sample_ns) {
      options.sampler(t_rel);
      next_sample_ns = now + sample_gap_ns;
    }
    if (options.resident_bytes && now >= next_resident_ns && now <= t_end) {
      resident.Sample(t_rel, options.resident_bytes());
      next_resident_ns = now + resident_gap_ns;
    }

    const bool issuing = open ? !schedule.done() : now < t_end;
    if (!issuing && outstanding == 0) break;
    if (now >= drain_deadline) break;

    int64_t wake = issuing ? (open ? schedule.next_due_ns() : t_end)
                           : drain_deadline;
    if (options.resident_bytes && issuing) {
      wake = std::min(wake, next_resident_ns);
    }
    if (sampled_slice) {
      wake = std::min(wake, next_sample_ns);
    } else if (options.sampler) {
      // Wake at the slice boundary so sampling starts on time.
      const int64_t slice_ns = static_cast<int64_t>(kSliceS * 1e9);
      wake = std::min(wake, t0 + ((now - t0) / slice_ns + 1) * slice_ns);
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      DieErrno("ppoll");
    }
    if (ready == 0) continue;
    now = NowNs();
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns[c];
      for (;;) {
        const ssize_t n = ::read(conn.fd, buf, sizeof buf);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          DieErrno("read");
        }
        if (n == 0) {
          std::fprintf(stderr, "servebench: server closed a connection\n");
          std::exit(2);
        }
        conn.framer.Append(std::string_view(buf, static_cast<size_t>(n)));
      }
      std::string line;
      while (conn.framer.NextLine(&line) ==
             xcq::server::LineFramer::Next::kLine) {
        if (conn.assembler.Feed(std::move(line), &reply)) {
          complete(c, reply, now, sampled_slice);
        }
      }
    }
  }

  result.resident_mean_bytes = resident.Mean();
  // Whatever is still unanswered after the drain bound failed.
  result.failed += outstanding;
  if (outstanding > 0 && result.first_error.empty()) {
    result.first_error = "replies missing after the drain bound";
  }
  if (open && schedule.issued() != schedule.total()) {
    ++result.failed;
    result.first_error = "open-loop schedule not fully sent: " +
                         std::to_string(schedule.issued()) + " of " +
                         std::to_string(schedule.total());
  }
  if (options.sampler) {
    // Odd slices were sampled; the last one may be cut by the window.
    for (double start = kSliceS; start < options.seconds;
         start += 2 * kSliceS) {
      result.sampled_s += std::min(kSliceS, options.seconds - start);
    }
    result.unsampled_s = options.seconds - result.sampled_s;
  }
  for (Conn& conn : conns) ::close(conn.fd);
  return result;
}

}  // namespace servebench
