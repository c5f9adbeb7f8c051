#include "dist/chaos.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "util/assert.h"

namespace hyco::dist {

namespace {

/// Forwards whatever is readable on `from` to `to`. Returns the bytes
/// moved, or -1 when the pair is finished (EOF or a socket error on
/// either side).
std::int64_t pump(int from, int to) {
  char buf[1 << 16];
  const ssize_t n = ::recv(from, buf, sizeof(buf), 0);
  if (n <= 0) return -1;
  std::size_t sent = 0;
  while (sent < static_cast<std::size_t>(n)) {
    const ssize_t m = ::send(to, buf + sent,
                             static_cast<std::size_t>(n) - sent, MSG_NOSIGNAL);
    if (m < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    sent += static_cast<std::size_t>(m);
  }
  return n;
}

}  // namespace

ChaosProxy::ChaosProxy(ChaosProxyOptions opts)
    : opts_(opts), rng_(opts.seed) {
  HYCO_CHECK_MSG(opts_.sever_min_bytes <= opts_.sever_max_bytes,
                 "chaos proxy: sever byte range ["
                     << opts_.sever_min_bytes << ", " << opts_.sever_max_bytes
                     << "] is inverted");
}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  HYCO_CHECK_MSG(listen_fd_ < 0, "chaos proxy already started");
  listen_fd_ = listen_on(opts_.listen_port, &bound_port_);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void ChaosProxy::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ChaosProxy::close_pair(Pair& p) {
  if (p.client >= 0) ::close(p.client);
  if (p.upstream >= 0) ::close(p.upstream);
  p.client = p.upstream = -1;
}

void ChaosProxy::loop() {
  std::vector<pollfd> pfds;
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Pair& p : pairs_) {
      pfds.push_back({p.client, POLLIN, 0});
      pfds.push_back({p.upstream, POLLIN, 0});
    }
    if (::poll(pfds.data(), pfds.size(), 50) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Only the pairs polled above have pfds entries; a pair accepted below
    // waits for the next poll.
    const std::size_t polled = pairs_.size();

    if ((pfds[0].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0) {
        const int upstream = connect_once(opts_.target);
        if (upstream < 0) {
          // Coordinator unreachable (e.g. mid-restart in a crash test):
          // drop the client, who redials with backoff.
          ::close(client);
        } else {
          Pair p;
          p.client = client;
          p.upstream = upstream;
          p.budget = opts_.sever_min_bytes +
                     rng_.bounded(opts_.sever_max_bytes -
                                  opts_.sever_min_bytes + 1);
          pairs_.push_back(p);
          accepted_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }

    for (std::size_t i = polled; i-- > 0;) {
      Pair& p = pairs_[i];
      const pollfd& cpf = pfds[1 + i * 2];
      const pollfd& upf = pfds[2 + i * 2];
      bool dead = false;
      std::int64_t moved = 0;
      if ((cpf.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const std::int64_t n = pump(p.client, p.upstream);
        if (n < 0) dead = true;
        moved += std::max<std::int64_t>(n, 0);
      }
      if (!dead && (upf.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const std::int64_t n = pump(p.upstream, p.client);
        if (n < 0) dead = true;
        moved += std::max<std::int64_t>(n, 0);
      }
      if (!dead &&
          severed_.load(std::memory_order_relaxed) < opts_.max_severs) {
        const auto m = static_cast<std::uint64_t>(moved);
        if (m >= p.budget) {
          // Budget exhausted: optionally play dead for a while, then cut
          // both sides mid-stream. The stall blocks the whole proxy
          // thread — deliberate, it starves *every* pair the way a
          // wedged link starves everything behind it.
          if (opts_.stall.count() > 0) {
            std::this_thread::sleep_for(opts_.stall);
          }
          severed_.fetch_add(1, std::memory_order_relaxed);
          dead = true;
        } else {
          p.budget -= m;
        }
      }
      if (dead) {
        close_pair(p);
        pairs_.erase(pairs_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  for (Pair& p : pairs_) close_pair(p);
  pairs_.clear();
}

}  // namespace hyco::dist
