#include "pay.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/thread_pool.h"
#include "crypto/batch_verify.h"
#include "crypto/sigcache.h"
#include "gateway/pipeline.h"
#include "gateway/wire.h"
#include "net/frame_assembler.h"
#include "net/server.h"
#include "replication/failover.h"
#include "replication/follower.h"
#include "store/recovery.h"
#include "store/snapshot.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace gateway = btcfast::gateway;
namespace net = btcfast::net;
namespace store = btcfast::store;
namespace replication = btcfast::replication;
namespace crypto = btcfast::crypto;
using btcfast::Bytes;

/// A payment not accepted within the paper's bound counts as failed.
constexpr double kAcceptBoundMs = 1000.0;
/// The load generator's connections (one thread drives them all).
constexpr std::size_t kConnections = 2;
/// Cadence of flush_accepted on the server's loop thread.
constexpr std::uint64_t kFlushEveryNs = 50'000'000;

std::uint64_t rid_of(const Bytes& frame) {
  // u32le magic | u8 type | u64le request_id | ...
  if (frame.size() < 13) return 0;
  std::uint64_t rid = 0;
  for (int i = 0; i < 8; ++i) rid |= static_cast<std::uint64_t>(frame[5 + i]) << (8 * i);
  return rid;
}

std::optional<gateway::FastPayResultResponse> decode_result(const Bytes& bytes) {
  const auto frame = gateway::Frame::deserialize(bytes);
  if (!frame || frame->type != gateway::MsgType::kFastPayResult) return std::nullopt;
  return gateway::FastPayResultResponse::deserialize(frame->payload);
}

bool is_accept(const Bytes& bytes) {
  const auto r = decode_result(bytes);
  return r && r->accepted;
}

/// The primary's and the follower's stores never fsync: a commit ends in
/// the WAL file's stdio buffer, with no write(2) or fsync(2), and data
/// reaches the file when the buffer fills or the store closes. The
/// benchmark may write only inside its checkout, which sits on a disk,
/// and fsync there added the device's latency noise to every payment.
/// Promotion still fsyncs (promote_follower persists the fence epoch and
/// the epoch-change record with kAlways), so failover_ms includes two
/// fsyncs on that disk.
store::StoreOptions durable() {
  store::StoreOptions o;
  o.policy = store::FsyncPolicy::kNone;
  return o;
}

/// Counters the loop-thread wrappers fill; the generator thread takes a
/// copy at phase boundaries.
struct Counters {
  std::uint64_t handle_calls = 0, frames = 0;
  double handle_wall_us = 0, handle_cpu_us = 0;
  std::uint64_t quorum_calls = 0;
  double quorum_us = 0;
  std::uint64_t ships = 0, ship_records = 0, ship_bytes = 0;
  double ship_us = 0;
  std::vector<double> flush_ms;  ///< non-empty flushes only
  std::uint64_t flushed = 0;
  double flush_us = 0;
};

class Probe {
 public:
  explicit Probe(std::size_t payments) : handle_ns_(payments, 0) {}

  void on_handle(const std::vector<Bytes>& frames, std::uint64_t wall_ns, double cpu_us) {
    std::lock_guard lock(mu_);
    ++c_.handle_calls;
    c_.frames += frames.size();
    c_.handle_wall_us += static_cast<double>(wall_ns) / 1e3;
    c_.handle_cpu_us += cpu_us;
    for (const auto& f : frames) {
      const std::uint64_t rid = rid_of(f);
      if (rid >= 1 && rid <= handle_ns_.size()) handle_ns_[rid - 1] = wall_ns;
    }
  }
  void on_quorum(std::uint64_t ns) {
    std::lock_guard lock(mu_);
    ++c_.quorum_calls;
    c_.quorum_us += static_cast<double>(ns) / 1e3;
  }
  void on_ship(std::size_t records, std::size_t bytes, std::uint64_t ns) {
    std::lock_guard lock(mu_);
    ++c_.ships;
    c_.ship_records += records;
    c_.ship_bytes += bytes;
    c_.ship_us += static_cast<double>(ns) / 1e3;
  }
  void on_flush(std::size_t items, std::uint64_t ns) {
    std::lock_guard lock(mu_);
    if (items == 0) return;
    c_.flush_ms.push_back(static_cast<double>(ns) / 1e6);
    c_.flushed += items;
    c_.flush_us += static_cast<double>(ns) / 1e3;
  }
  /// Counters since the last take().
  Counters take() {
    std::lock_guard lock(mu_);
    Counters out = std::move(c_);
    c_ = Counters{};
    return out;
  }
  /// Wall time of the handle() call that served payment `index`.
  std::uint64_t handle_ns(std::size_t index) {
    std::lock_guard lock(mu_);
    return index < handle_ns_.size() ? handle_ns_[index] : 0;
  }

 private:
  std::mutex mu_;
  Counters c_;
  std::vector<std::uint64_t> handle_ns_;
};

/// net::FrameHandler seam: times every batch the server dispatches.
class TimedHandler final : public net::FrameHandler {
 public:
  TimedHandler(net::FrameHandler& inner, Probe& probe, Tracer& tracer, Mutation mutation)
      : inner_(inner), probe_(probe), tracer_(tracer), flip_(mutation == Mutation::kFlipAccept) {}

  [[nodiscard]] std::vector<Bytes> handle(const std::vector<Bytes>& frames,
                                          std::uint64_t now_ms) override {
    Scoped span(tracer_, "gateway.handle", frames.empty() ? 0 : rid_of(frames.front()));
    const double c0 = thread_cpu_us();
    const std::uint64_t t0 = now_ns();
    auto out = inner_.handle(frames, now_ms);
    const std::uint64_t t1 = now_ns();
    const double c1 = thread_cpu_us();
    probe_.on_handle(frames, t1 - t0, c1 - c0);
    if (flip_) flip_one(out);
    return out;
  }

 private:
  /// Liveness mutation: rewrite the first accept as a rejection.
  void flip_one(std::vector<Bytes>& out) {
    for (auto& bytes : out) {
      const auto frame = gateway::Frame::deserialize(bytes);
      auto resp = decode_result(bytes);
      if (!frame || !resp || !resp->accepted) continue;
      resp->accepted = false;
      resp->code = btcfast::core::RejectReason::kOverloaded;
      bytes = gateway::make_frame(frame->type, frame->request_id, resp->serialize());
      flip_ = false;
      return;
    }
  }

  net::FrameHandler& inner_;
  Probe& probe_;
  Tracer& tracer_;
  bool flip_;
};

/// store::CommitGate seam: times the quorum wait the gateway pays per ack.
class TimedGate final : public store::CommitGate {
 public:
  TimedGate(store::CommitGate& inner, Probe& probe, Tracer& tracer)
      : inner_(inner), probe_(probe), tracer_(tracer) {}

  [[nodiscard]] bool quorum_commit(std::uint64_t seq, std::uint64_t now_ms) override {
    Scoped span(tracer_, "replication.quorum");
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_.quorum_commit(seq, now_ms);
    probe_.on_quorum(now_ns() - t0);
    return ok;
  }

 private:
  store::CommitGate& inner_;
  Probe& probe_;
  Tracer& tracer_;
};

/// replication::FollowerLink seam: times and sizes every ship.
class TimedLink final : public replication::FollowerLink {
 public:
  TimedLink(replication::FollowerLink& inner, Probe& probe, Tracer& tracer)
      : inner_(inner), probe_(probe), tracer_(tracer) {}

  [[nodiscard]] replication::ShipAck ship(const replication::ShipBatch& batch) override {
    Scoped span(tracer_, "replication.ship");
    const std::uint64_t t0 = now_ns();
    auto ack = inner_.ship(batch);
    probe_.on_ship(batch.count, batch.framed.size(), now_ns() - t0);
    return ack;
  }
  [[nodiscard]] std::optional<replication::FollowerCursor> cursor() override {
    return inner_.cursor();
  }
  [[nodiscard]] bool fence(std::uint64_t epoch) override { return inner_.fence(epoch); }
  [[nodiscard]] bool install(const store::StateImage& image, std::uint64_t epoch) override {
    return inner_.install(image, epoch);
  }

 private:
  replication::FollowerLink& inner_;
  Probe& probe_;
  Tracer& tracer_;
};

// ---------------------------------------------------------------- client

struct ClientConn {
  int fd = -1;
  net::FrameAssembler assembler;
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Blocking-style full write on a nonblocking socket (the loopback send
/// buffer holds many frames, so this almost never waits).
bool write_all(int fd, const Bytes& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      (void)::poll(&p, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

struct Phase {
  std::size_t first = 0;  ///< payment index of the first request
  std::vector<Request> req;
  std::vector<std::uint8_t> accepted;
  double gen_cpu_us = 0;   ///< load-generator thread CPU
  double proc_cpu_us = 0;  ///< whole-process CPU
  double wall_s = 0;
  std::uint64_t bytes = 0; ///< client bytes out + in
  std::string first_reject;  ///< why the first refused payment was refused
};

/// Drive payments [first, first + count) through the sockets, open loop:
/// groups of `burst` payments fall due together, on a fixed schedule that
/// averages `rate_per_s`, and go out round-robin over the connections.
Phase drive(std::vector<ClientConn>& conns, const PayWorld& w, std::size_t first,
            std::size_t count, const PayConfig& cfg, Tracer& tracer) {
  Phase ph;
  ph.first = first;
  ph.req.resize(count);
  ph.accepted.assign(count, 0);
  const double g0 = thread_cpu_us(), p0 = process_cpu_us();
  const auto burst_ns = static_cast<std::uint64_t>(1e9 * static_cast<double>(cfg.burst) / cfg.rate_per_s);
  const std::uint64_t t0 = now_ns() + 1'000'000;
  auto due = [&](std::size_t k) { return t0 + (k / cfg.burst) * burst_ns; };

  std::size_t next = 0, done = 0;
  std::uint64_t last_progress = now_ns();
  std::vector<pollfd> fds(conns.size());
  std::vector<std::uint8_t> buf(1 << 16);
  auto send = [&](std::size_t k, ClientConn& c) {
    const Bytes& frame = w.frames[first + k];
    if (!write_all(c.fd, frame)) return false;
    ph.req[k].sent_ns = now_ns();
    ph.bytes += frame.size();
    return true;
  };
  for (std::size_t k = 0; k < count; ++k) ph.req[k].due_ns = due(k);
  bool transport_ok = true;
  while (done < count && transport_ok) {
    while (next < count && due(next) <= now_ns()) {
      transport_ok &= send(next, conns[next % conns.size()]);
      ++next;
    }
    // Wait for a response, or until the next request falls due.
    int64_t wait_ns = 100'000'000;
    if (next < count) {
      const std::uint64_t d = due(next), t = now_ns();
      wait_ns = d > t ? static_cast<int64_t>(d - t) : 0;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) fds[i] = pollfd{conns[i].fd, POLLIN, 0};
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000), static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready > 0) {
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (;;) {
          const ssize_t n = ::read(conns[i].fd, buf.data(), buf.size());
          if (n <= 0) {
            if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
              transport_ok = false;
            }
            break;
          }
          ph.bytes += static_cast<std::uint64_t>(n);
          (void)conns[i].assembler.feed({buf.data(), static_cast<std::size_t>(n)});
        }
        while (auto frame = conns[i].assembler.next_frame()) {
          const std::uint64_t t = now_ns();
          const std::uint64_t rid = rid_of(*frame);
          if (rid < first + 1 || rid > first + count) continue;
          const std::size_t k = rid - 1 - first;
          if (ph.req[k].done_ns != 0) continue;
          ph.req[k].done_ns = t;
          const auto result = decode_result(*frame);
          ph.accepted[k] = result && result->accepted ? 1 : 0;
          if (ph.accepted[k] == 0 && ph.first_reject.empty()) {
            ph.first_reject = result ? btcfast::core::describe(result->code) + (": " + result->reason)
                                     : "undecodable response";
          }
          ++done;
          last_progress = t;
          tracer.record("client.request", rid, ph.req[k].due_ns, t);
        }
      }
    }
    // A response that has not arrived within 5 s never will in a sane
    // run; stop and count the rest as failed.
    if (next == count && now_ns() - last_progress > 5'000'000'000ULL) break;
  }
  ph.gen_cpu_us = thread_cpu_us() - g0;
  ph.proc_cpu_us = process_cpu_us() - p0;
  ph.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return ph;
}

// ----------------------------------------------------------- measurement

struct PhaseReport {
  double p50_ms = 0;      ///< mean of the slice medians (the end-to-end figure)
  double run_p50_ms = 0;  ///< median over the whole phase
  double p99_ms = 0, late_p99_ms = 0;
  std::size_t samples = 0;
  std::uint64_t accepted = 0;
  double server_cpu_us_per_pay = 0;
  double client_cpu_us_per_pay = 0;
  double residual_us = 0;  ///< median of (client latency - covering handle())
  double bytes_per_pay = 0;
};

PhaseReport summarize(const Phase& ph, Probe& probe) {
  PhaseReport r;
  const OpenLoopStats s = open_loop_stats(ph.req);
  r.samples = s.latency_ms.size();
  r.p50_ms = window_median_mean(s.latency_ms);
  r.run_p50_ms = percentile(s.latency_ms, 50);
  r.p99_ms = percentile(s.latency_ms, 99);
  r.late_p99_ms = percentile(s.late_ms, 99);
  std::vector<double> residual;
  for (std::size_t k = 0; k < ph.req.size(); ++k) {
    const Request& q = ph.req[k];
    r.accepted += ph.accepted[k];
    if (q.done_ns != 0) {
      residual.push_back(static_cast<double>(q.done_ns - q.due_ns) / 1e3 -
                         static_cast<double>(probe.handle_ns(ph.first + k)) / 1e3);
    }
  }
  r.residual_us = percentile(residual, 50);
  const double n = static_cast<double>(std::max<std::size_t>(ph.req.size(), 1));
  r.server_cpu_us_per_pay =
      (ph.proc_cpu_us - ph.gen_cpu_us) / static_cast<double>(std::max<std::uint64_t>(r.accepted, 1));
  r.client_cpu_us_per_pay = ph.gen_cpu_us / n;
  r.bytes_per_pay = static_cast<double>(ph.bytes) / n;
  return r;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Time one batch_verify call of `jobs`, microseconds.
double time_verify(const std::vector<crypto::SigCheckJob>& jobs, crypto::PubkeyPrecompCache* pc,
                   bool* all_valid) {
  const std::uint64_t t0 = now_ns();
  const auto ok = crypto::batch_verify(btcfast::common::ThreadPool::global(), jobs, nullptr, pc);
  const std::uint64_t t1 = now_ns();
  for (const auto v : ok) *all_valid &= v == 1;
  return static_cast<double>(t1 - t0) / 1e3;
}

/// The two signature jobs of one pre-signed payment (binding + input),
/// rebuilt from its frame exactly as the gateway's pre-verify pass does.
std::vector<crypto::SigCheckJob> jobs_of(const PayWorld& w, std::size_t index) {
  std::vector<crypto::SigCheckJob> jobs;
  const auto frame = gateway::Frame::deserialize(w.frames[index]);
  if (!frame) return jobs;
  const auto req = gateway::SubmitFastPayRequest::deserialize(frame->payload);
  if (!req) return jobs;
  const auto& tx = req->package.payment_tx;
  crypto::SigCheckJob binding;
  binding.digest = req->package.binding.binding.signing_digest();
  binding.pubkey = tx.inputs[0].script_sig.pubkey;  // the payer's one key signs both
  binding.sig = req->package.binding.customer_sig;
  jobs.push_back(binding);
  if (const auto coin = w.node->chain().utxo().get(tx.inputs[0].prevout)) {
    crypto::SigCheckJob input;
    input.digest = tx.signature_hash(0, coin->out.script_pubkey);
    input.pubkey = tx.inputs[0].script_sig.pubkey;
    input.sig = tx.inputs[0].script_sig.signature;
    jobs.push_back(input);
  }
  return jobs;
}

/// Copy a store directory and make the copy durable, as a crashed node's
/// files are: otherwise the drill's first fsync would also write back
/// the whole freshly copied log, and time the copy instead of the restart.
void copy_dir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  for (const auto& entry : fs::recursive_directory_iterator(to)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error("cannot open " + entry.path().string());
    (void)::fsync(fd);
    ::close(fd);
  }
  const int dir = ::open(to.c_str(), O_RDONLY);
  if (dir >= 0) {
    (void)::fsync(dir);
    ::close(dir);
  }
}

}  // namespace

Result run_pay(const PayConfig& cfg, std::uint64_t seed) {
  Result res;
  auto& pool = btcfast::common::ThreadPool::global();
  Tracer tracer(false);

  // ---- setup: build the world several times, report the median --------
  const auto warmup = static_cast<std::size_t>(cfg.rate_per_s / 2);
  const auto measured = static_cast<std::size_t>(cfg.rate_per_s * cfg.seconds);
  PayShape shape = cfg.world;
  shape.payments = warmup + measured + 1;
  const std::size_t tail = shape.payments - 1;  // the drills' first new payment
  std::vector<double> setup_s;
  std::unique_ptr<PayWorld> w;
  for (int b = 0; b < kSetupBuilds; ++b) {
    w.reset();
    const std::uint64_t t0 = now_ns();
    w = build_pay_world(seed, shape);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  res.note("inputs_digest " + w->inputs_digest);
  std::string builds = "setup_s";
  for (const double v : setup_s) builds += " " + std::to_string(v);
  res.note(builds);

  // ---- the serving stack ------------------------------------------------
  crypto::SigCache::global().clear();
  crypto::PubkeyPrecompCache::global().clear();
  fs::remove_all(cfg.run_dir);
  fs::create_directories(cfg.run_dir);
  const std::string primary_dir = cfg.run_dir + "/primary";
  const std::string follower_dir = cfg.run_dir + "/follower";
  replication::Follower::Options fopts;
  fopts.store = durable();

  Probe probe(shape.payments);
  auto primary = store::DurableStore::open(primary_dir, durable());
  std::string ferr;
  auto follower = replication::Follower::open(follower_dir, fopts, &ferr);
  if (!primary || !follower) throw std::runtime_error("store open failed: " + ferr);
  replication::LocalFollowerLink local_link(follower.get());
  TimedLink link(local_link, probe, tracer);
  replication::ReplicationConfig rcfg;
  rcfg.quorum = 1;
  replication::ReplicationGroup group(rcfg);
  group.attach_primary(primary.get());
  group.add_follower(&link);
  TimedGate gate(group, probe, tracer);

  const gateway::GatewayConfig gcfg;
  auto gw = std::make_unique<gateway::Gateway>(*w->merchant, pool, gcfg);
  for (const auto e : w->escrows) gw->track_escrow(e);
  for (std::size_t i = 0; i < tail; ++i) gw->register_invoice(w->invoices[i]);
  gw->attach_store(primary.get());
  gw->attach_commit_gate(&gate);

  net::GatewayHandler gw_handler(*gw);
  gw_handler.pin_time(w->now_ms);  // simulated clock is quiescent; sockets run on real time
  TimedHandler handler(gw_handler, probe, tracer, cfg.mutation);
  net::TcpServer server(handler, net::ServerConfig{});
  if (!server.start()) throw std::runtime_error("server start failed");

  std::atomic<bool> stop{false};
  std::thread loop([&] {
    const std::uint64_t cadence = kFlushEveryNs;
    std::uint64_t next_flush = now_ns() + cadence;
    auto flush = [&] {
      Scoped span(tracer, "gateway.flush");
      const std::size_t items = gw->commit_queue_depth();
      const std::uint64_t t0 = now_ns();
      (void)gw->flush_accepted(w->now_ms);
      probe.on_flush(items, now_ns() - t0);
    };
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = now_ns();
      if (now >= next_flush) {
        flush();
        next_flush += cadence;
        if (next_flush < now) next_flush = now + cadence;
        continue;
      }
      const auto wait_ms = static_cast<int>((next_flush - now + 999'999) / 1'000'000);
      (void)server.poll_once(std::min(wait_ms, 10));
    }
    flush();
  });

  std::vector<ClientConn> conns(kConnections);
  for (auto& c : conns) {
    c.fd = connect_to(server.port());
    if (c.fd < 0) {
      stop.store(true);
      loop.join();
      throw std::runtime_error("client connect failed");
    }
  }

  // ---- load phases ------------------------------------------------------
  // Every payment sent is an attempted operation; one not accepted
  // within the 1 s bound is a failed one, and one refused outright also
  // makes the run incorrect.
  std::uint64_t client_accepts = 0;
  auto account = [&](const Phase& ph) {
    std::uint64_t late = 0;
    for (std::size_t k = 0; k < ph.req.size(); ++k) {
      const Request& q = ph.req[k];
      client_accepts += ph.accepted[k];
      const bool in_time =
          q.done_ns != 0 && static_cast<double>(q.done_ns - q.due_ns) / 1e6 <= kAcceptBoundMs;
      if (ph.accepted[k] == 0 || !in_time) ++late;
    }
    res.attempted += ph.req.size();
    res.failed += late;
    if (late > 0) {
      res.note(std::to_string(late) + " payments not accepted within 1 s; first refusal: " +
               ph.first_reject);
    }
    res.correct &= std::all_of(ph.accepted.begin(), ph.accepted.end(), [](auto a) { return a != 0; });
  };
  account(drive(conns, *w, 0, warmup, cfg, tracer));

  struct Snapshot {
    crypto::SigCache::Stats sig;
    crypto::PubkeyPrecompCache::Stats pre;
    std::uint64_t wal_bytes, wal_syncs, batches, batch_jobs, quorum_failures;
    net::NetStatsSnapshot net;
  };
  auto snap = [&] {
    return Snapshot{crypto::SigCache::global().stats(),
                    crypto::PubkeyPrecompCache::global().stats(),
                    primary->wal_bytes(),
                    primary->wal_syncs(),
                    gw->batcher().batches(),
                    gw->batcher().jobs_verified(),
                    group.stats().quorum_failures,
                    server.stats()};
  };
  auto measure = [&](std::size_t first, std::size_t count, bool traced) {
    (void)probe.take();
    gw->reset_stats();
    tracer.set_enabled(traced);
    const Snapshot before = snap();
    Phase ph = drive(conns, *w, first, count, cfg, tracer);
    tracer.set_enabled(false);
    account(ph);
    return std::make_tuple(std::move(ph), before, snap(), probe.take(), gw->stats());
  };

  // Traced runs measure untraced / traced / untraced (a quarter, a half,
  // a quarter), so drift over the run cancels out of the overhead.
  const std::size_t quarter = cfg.trace ? measured / 4 : 0;
  const std::size_t traced_first = warmup + quarter;
  const std::size_t traced_count = measured - 2 * quarter;
  std::vector<Request> untraced;
  auto untraced_quarter = [&](std::size_t first) {
    auto [q, b, a, c, st] = measure(first, quarter, false);
    untraced.insert(untraced.end(), q.req.begin(), q.req.end());
  };
  if (cfg.trace) untraced_quarter(warmup);
  auto [ph, before, after, ctr, gst] = measure(traced_first, traced_count, cfg.trace);
  const PhaseReport rep = summarize(ph, probe);
  if (cfg.trace) untraced_quarter(traced_first + traced_count);
  const double untraced_p50 = percentile(open_loop_stats(untraced).latency_ms, 50);
  res.note("run median " + std::to_string(rep.run_p50_ms) + " ms, mean of slice medians " +
           std::to_string(rep.p50_ms) + " ms");
  res.note("client.p99_ms " + std::to_string(rep.p99_ms) + " samples " +
           std::to_string(rep.samples) + " late_p99_ms " + std::to_string(rep.late_p99_ms));
  res.note("measured " + std::to_string(ph.req.size()) + " payments in " +
           std::to_string(ph.wall_s) + " s (" +
           std::to_string(static_cast<double>(ph.req.size()) / ph.wall_s) +
           " payments/s wall; reported, not bounded)");

  // ---- drain, stop, pre-crash checks ------------------------------------
  for (auto& c : conns) ::close(c.fd);
  for (int i = 0; i < 2000 && server.connection_count() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  loop.join();

  res.check(client_accepts == gw->reservations_granted(),
            "gateway accept count " + std::to_string(gw->reservations_granted()) +
                " != client accept count " + std::to_string(client_accepts));
  res.check(gw->commit_queue_depth() == 0, "accepted payments left unflushed");
  for (const auto e : w->escrows) {
    const auto s = gw->escrow_snapshot(e);
    res.check(s && s->view.reserved + s->local_reserved <= s->view.collateral,
              "escrow " + std::to_string(e) + " over-reserved");
  }
  res.check(follower->cursor().last_seq == primary->last_committed_seq(),
            "follower behind the primary at crash time");
  const store::StateImage crash_image = primary->image_copy();
  const Bytes crash_bytes = crash_image.serialize();
  const std::uint64_t wal_records = primary->last_committed_seq();

  // ---- crash: the gateway and the primary store handle die --------------
  const std::uint64_t accepted_total = gw->reservations_granted();
  gw.reset();
  group.detach_primary();
  primary.reset();
  const std::string pristine_primary = cfg.run_dir + "/pristine-primary";
  const std::string pristine_follower = cfg.run_dir + "/pristine-follower";
  copy_dir(primary_dir, pristine_primary);
  local_link.set_follower(nullptr);
  follower.reset();
  copy_dir(follower_dir, pristine_follower);

  tracer.set_enabled(cfg.trace);
  std::vector<double> restart_ms, open_ms, restore_ms, failover_ms, promote_ms;
  std::uint64_t replayed = 0;
  bool corrupt = cfg.mutation == Mutation::kCorruptRecovery;
  auto first_accept = [&](btcfast::core::MerchantService& merchant, store::DurableStore& st,
                          const store::StateImage& image) {
    gateway::Gateway fresh(merchant, pool, gcfg);
    fresh.attach_store(&st);
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    {
      Scoped span(tracer, "gateway.restore");
      ok = fresh.restore_from(image);
    }
    restore_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    fresh.register_invoice(w->invoices[tail]);
    Scoped span(tracer, "gateway.first_accept", tail + 1);
    return ok && is_accept(fresh.serve(w->frames[tail], w->now_ms));
  };
  auto restart_once = [&](int r) {
    const std::string work = cfg.run_dir + "/restart";
    copy_dir(pristine_primary, work);
    const std::uint64_t t0 = now_ns();
    store::RecoveryInfo info;
    std::unique_ptr<store::DurableStore> st;
    {
      Scoped span(tracer, "store.open");
      st = store::DurableStore::open(work, durable(), &info);
    }
    const std::uint64_t t1 = now_ns();
    bool ok = st != nullptr;
    store::StateImage image;
    if (ok) {
      image = st->image_copy();
      if (corrupt && !image.reservations.empty()) {
        image.reservations.front().amount += 1;
        corrupt = false;
      }
      auto merchant = w->fresh_merchant();
      ok = first_accept(*merchant, *st, image);
    }
    const std::uint64_t t2 = now_ns();
    restart_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    open_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    replayed = info.replayed_records;
    res.check(ok && image.serialize() == crash_bytes,
              "restart " + std::to_string(r) + ": recovered image differs or first payment refused");
    ++res.attempted;
  };
  auto failover_once = [&](int r) {
    const std::string work = cfg.run_dir + "/failover";
    copy_dir(pristine_follower, work);
    auto f = replication::Follower::open(work, fopts, &ferr);
    if (!f) throw std::runtime_error("follower reopen failed: " + ferr);
    const std::uint64_t new_epoch = crash_image.epoch + 1;
    const std::uint64_t t0 = now_ns();
    replication::Promotion promo;
    {
      Scoped span(tracer, "replication.promote");
      promo = replication::promote_follower(*f, new_epoch);
    }
    const std::uint64_t t1 = now_ns();
    bool ok = promo.ok();
    store::StateImage image;
    if (ok) {
      image = promo.store->image_copy();
      auto merchant = w->fresh_merchant();
      ok = first_accept(*merchant, *promo.store, image);
    }
    const std::uint64_t t2 = now_ns();
    failover_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
    promote_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    store::StateImage want = crash_image;
    want.epoch = new_epoch;
    want.last_seq = image.last_seq;
    res.check(ok && promo.promoted_seq == wal_records && image.serialize() == want.serialize(),
              "failover " + std::to_string(r) + ": promoted image differs or first payment refused");
    ++res.attempted;
  };
  // Interleaved, so both drills see the same stretch of machine time.
  for (int r = 0; r < kDrillRepeats; ++r) {
    restart_once(r);
    failover_once(r);
  }
  tracer.set_enabled(false);

  // ---- kernels, for the kernel-to-layer ledger --------------------------
  bool kernels_valid = true;
  std::vector<double> cold, warm;
  {
    crypto::PubkeyPrecompCache pc(64);
    for (std::size_t i = warmup; i < std::min(tail, warmup + 64); ++i) {
      const auto jobs = jobs_of(*w, i);
      if (jobs.size() != 2) {
        kernels_valid = false;
        continue;
      }
      cold.push_back(time_verify(jobs, nullptr, &kernels_valid) / 2);
      (void)time_verify(jobs, &pc, &kernels_valid);  // two-touch admission
      (void)time_verify(jobs, &pc, &kernels_valid);
      warm.push_back(time_verify(jobs, &pc, &kernels_valid) / 2);
    }
  }
  res.check(kernels_valid, "kernel verify rejected a pre-signed signature");
  std::vector<double> commit_kernel;
  {
    const std::string kdir = cfg.run_dir + "/kernel";
    fs::remove_all(kdir);
    auto st = store::DurableStore::open(kdir, durable());
    for (std::uint64_t i = 1; st && i <= 200; ++i) {
      store::StoreRecord rec;
      rec.kind = store::RecordKind::kReserve;
      rec.reservation_id = i;
      rec.escrow_id = 1;
      rec.amount = 1'000;
      rec.expires_at_ms = 1ULL << 40;
      rec.txid.fill(static_cast<std::uint8_t>(i));
      const std::uint64_t t0 = now_ns();
      (void)st->append(rec);
      (void)st->commit();
      commit_kernel.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  fs::remove_all(cfg.run_dir);

  // ---- metrics ----------------------------------------------------------
  const double setup = percentile(setup_s, 50);
  // Drill repeats do identical work on identical bytes, so no cost of
  // the drill can fall outside its fastest repeat: that one is its cost
  // on the machine's quietest stretch.
  const double restart = percentile(restart_ms, 0);
  const double failover = percentile(failover_ms, 0);
  res.e2e("setup_s", setup, "s");
  res.e2e("p50_ms", rep.p50_ms, "ms");
  res.e2e("cpu_us_per_op", rep.server_cpu_us_per_pay, "us");
  res.e2e("restart_ms", restart, "ms");
  res.e2e("failover_ms", failover, "ms");

  const double frames = static_cast<double>(std::max<std::uint64_t>(ctr.frames, 1));
  const double handle_us = ctr.handle_wall_us / frames;
  const double serve_mean = gst.latency().mean_us();
  auto stage = [&](gateway::Stage s) { return gst.stage(s).mean_us(); };
  double stage_sum = 0;
  for (std::size_t s = 0; s < gateway::kStageCount; ++s) {
    stage_sum += stage(static_cast<gateway::Stage>(s));
  }
  const double accepts = static_cast<double>(std::max<std::uint64_t>(rep.accepted, 1));
  const double quorum_us = ctr.quorum_us / static_cast<double>(std::max<std::uint64_t>(ctr.quorum_calls, 1));
  const double pre_ratio = ratio(after.pre.hits - before.pre.hits,
                                 (after.pre.hits - before.pre.hits) + (after.pre.misses - before.pre.misses));
  const double cold_us = percentile(cold, 50), warm_us = percentile(warm, 50);
  const double preverify = handle_us - serve_mean;
  const double p50_us = rep.run_p50_ms * 1e3;

  res.layer("net.residual_us", rep.residual_us, "us");
  res.layer("net.frames_per_handle", ratio(ctr.frames, ctr.handle_calls), "count");
  res.layer("net.bytes_per_pay", rep.bytes_per_pay, "B");
  res.layer("net.read_pauses", static_cast<double>(after.net.read_pauses - before.net.read_pauses), "count");
  res.layer("net.sheds_seen", static_cast<double>(after.net.sheds_seen - before.net.sheds_seen), "count");
  res.layer("gateway.handle_us_per_frame", handle_us, "us");
  res.layer("gateway.handle_cpu_us_per_frame", ctr.handle_cpu_us / frames, "us");
  res.layer("gateway.serve_p50_us", gst.latency().percentile_us(50), "us");
  res.layer("gateway.preverify_us", preverify, "us");
  for (std::size_t s = 0; s < gateway::kStageCount; ++s) {
    const auto st = static_cast<gateway::Stage>(s);
    res.layer(std::string("gateway.stage_") + gateway::stage_name(st) + "_us", stage(st), "us");
  }
  res.layer("gateway.unstaged_us", serve_mean - stage_sum, "us");
  res.layer("gateway.batch_jobs",
            ratio(after.batch_jobs - before.batch_jobs, after.batches - before.batches), "count");
  res.layer("gateway.flush_ms", percentile(ctr.flush_ms, 50), "ms");
  res.layer("gateway.flush_us_per_pay", ctr.flush_us / static_cast<double>(std::max<std::uint64_t>(ctr.flushed, 1)), "us");
  res.layer("gateway.restore_ms", percentile(restore_ms, 50), "ms");
  res.layer("crypto.precomp_hit_ratio", pre_ratio, "ratio");
  res.layer("crypto.sigcache_hit_ratio",
            ratio(after.sig.hits - before.sig.hits,
                  (after.sig.hits - before.sig.hits) + (after.sig.misses - before.sig.misses)),
            "ratio");
  res.layer("crypto.verify_cold_us", cold_us, "us");
  res.layer("crypto.verify_warm_us", warm_us, "us");
  const double verify_pred = 2 * (pre_ratio * warm_us + (1 - pre_ratio) * cold_us);
  res.layer("crypto.verify_pred_us", verify_pred, "us");
  const double commit_us = stage(gateway::Stage::kWal) - quorum_us;
  res.layer("store.commit_us", commit_us, "us");
  res.layer("store.commit_pred_us", percentile(commit_kernel, 50), "us");
  res.layer("store.wal_bytes_per_pay", static_cast<double>(after.wal_bytes - before.wal_bytes) / accepts, "B");
  res.layer("store.fsyncs_per_pay", static_cast<double>(after.wal_syncs - before.wal_syncs) / accepts, "count");
  res.layer("store.open_ms", percentile(open_ms, 50), "ms");
  res.layer("store.replayed_records", static_cast<double>(replayed), "count");
  res.layer("replication.quorum_wait_us", quorum_us, "us");
  res.layer("replication.ship_us", ctr.ship_us / static_cast<double>(std::max<std::uint64_t>(ctr.ships, 1)), "us");
  res.layer("replication.records_per_ship", ratio(ctr.ship_records, ctr.ships), "count");
  res.layer("replication.ship_bytes_per_pay", static_cast<double>(ctr.ship_bytes) / accepts, "B");
  res.layer("replication.quorum_failures", static_cast<double>(after.quorum_failures - before.quorum_failures), "count");
  res.layer("replication.promote_ms", percentile(promote_ms, 50), "ms");
  res.layer("client.p99_ms", rep.p99_ms, "ms");
  res.layer("client.samples", static_cast<double>(rep.samples), "count");
  res.layer("client.late_p99_ms", rep.late_p99_ms, "ms");
  res.layer("client.cpu_us_per_pay", rep.client_cpu_us_per_pay, "us");
  res.layer("ledger.unattributed_us", p50_us - rep.residual_us - handle_us, "us");
  if (cfg.trace) {
    res.layer("trace.overhead_pct",
              untraced_p50 > 0 ? (rep.run_p50_ms - untraced_p50) / untraced_p50 * 100 : 0, "%");
  }

  // ---- the kernel-to-layer ledger (printed) ------------------------------
  char line[256];
  res.note("ledger layer          predicted_us   measured_us   (kernel -> layer)");
  std::snprintf(line, sizeof(line), "ledger crypto        %12.1f  %12.1f   2 x verify_{cold,warm} by precomp hits -> preverify + stage_verify",
                verify_pred, preverify + stage(gateway::Stage::kVerify));
  res.note(line);
  std::snprintf(line, sizeof(line), "ledger store         %12.1f  %12.1f   WAL append+commit of a reserve record (stdio buffer, no fsync) -> stage_wal - quorum_wait",
                percentile(commit_kernel, 50), commit_us);
  res.note(line);
  std::snprintf(line, sizeof(line), "ledger p50 split     %12.1f  %12.1f   net.residual + gateway.handle -> p50 (unattributed %.1f us)",
                rep.residual_us + handle_us, p50_us, p50_us - rep.residual_us - handle_us);
  res.note(line);
  std::snprintf(line, sizeof(line), "ledger handle split  %12.1f  %12.1f   preverify + stage means -> handle (unstaged %.1f us)",
                preverify + stage_sum, handle_us, serve_mean - stage_sum);
  res.note(line);
  if (cfg.trace) {
    for (auto& l : span_report(tracer.spans())) res.note(std::move(l));
    if (!cfg.trace_path.empty() && !tracer.write_jsonl(cfg.trace_path)) {
      res.note("trace write failed: " + cfg.trace_path);
    }
  }
  std::string drills = "restart_ms";
  for (const double v : restart_ms) drills += " " + std::to_string(v);
  drills += " | failover_ms";
  for (const double v : failover_ms) drills += " " + std::to_string(v);
  res.note(drills);
  res.note("accepted " + std::to_string(accepted_total) + " wal_records " + std::to_string(wal_records));
  return res;
}

}  // namespace perfbench
