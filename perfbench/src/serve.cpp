// serve_quotes — served requests from wire bytes to reply: an
// in-process AnalysisService behind a ServeServer on a unix socket,
// with the 16-layer book (256 trials over a 2,000-event catalogue)
// registered from files at start-up so the session's table cache stays
// warm. Three tenants (weights 1:1:2) drive one closed-loop connection
// per unit of weight — the next request only after the reply, as
// pricing clients wait for each quote — against max_inflight = 2. The
// sweep over the warm tables, on multicore_cpu, is most of the service
// time; around it run the per-request costs: framing, admission, DWRR
// queueing, dispatch and the metric reduction over few trials.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/session.hpp"
#include "inputs.hpp"
#include "io/binary.hpp"
#include "layers.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kServeTrials = 256;
/// Each request's sweep runs on the session's shared pool of nproc
/// workers, so its time averages over every core the host lends. (On
/// sequential_fused the same sweep took 1.5x longer whenever its thread
/// sat on a core the host loaded more, for seconds at a time, and the
/// served latency's median jumped by a fifth from run to run.)
constexpr ara::EngineKind kServeEngine = ara::EngineKind::kMultiCore;
/// The served book's catalogue: its 40 dense tables take 640 KB and
/// stay in each core's own L2, so a request's sweep does not wait on
/// the LLC the host shares with other machines, whose load drifts from
/// minute to minute (over kBookCatalogue's 16 MB the served latency
/// spread by a third from run to run).
constexpr ara::EventId kServeCatalogue = 2000;
constexpr std::size_t kMaxInflight = 2;
const char* const kDataset = "book";

struct TenantLoad {
  const char* name;
  std::uint32_t weight;
};
constexpr TenantLoad kTenants[] = {{"t0", 1}, {"t1", 1}, {"t2", 2}};
/// One closed-loop connection per unit of weight: four connections
/// against two dispatch slots keep two requests queued at all times, so
/// every request waits about one service time. (Three connections on
/// two slots alternate between not waiting and waiting, a two-peaked
/// latency whose median jumps between the peaks from run to run.)
constexpr const char* kConnections[] = {"t0", "t1", "t2", "t2"};

/// The service and its socket front, started the way ara_serve starts
/// them (--dataset NAME=DIR, --engine multicore_cpu, --max-inflight 2).
struct ServeStack {
  std::unique_ptr<ara::serve::AnalysisService> service;
  std::unique_ptr<ara::serve::ServeServer> server;
  std::shared_ptr<const ara::serve::ServedWorkload> workload;

  ServeStack(const std::string& dir, const std::string& socket,
             unsigned threads) {
    ara::serve::AnalysisService::Options options;
    options.policy = ara::ExecutionPolicy::with_engine(kServeEngine);
    options.session_workers = threads;
    options.max_inflight = kMaxInflight;
    service = std::make_unique<ara::serve::AnalysisService>(options);
    for (const TenantLoad& t : kTenants) {
      ara::serve::TenantConfig cfg;
      cfg.name = t.name;
      cfg.weight = t.weight;
      service->configure_tenant(cfg);
    }
    auto w = std::make_shared<ara::serve::ServedWorkload>();
    w->yet = ara::io::load_yet(yet_path(dir));
    w->portfolio = ara::io::load_portfolio(portfolio_path(dir));
    workload = w;
    service->register_dataset(kDataset, workload);
    server = std::make_unique<ara::serve::ServeServer>(
        *service, ara::serve::Endpoint::parse("unix:" + socket));
    server->start();
  }
  ~ServeStack() {
    server->stop();
    service->stop();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
};

ara::serve::ServeRequest quote_request(const char* tenant,
                                       std::uint64_t request_id) {
  ara::serve::ServeRequest request;
  request.tenant = tenant;
  request.request_id = request_id;
  request.workload = ara::serve::WorkloadRef::kDataset;
  request.dataset = kDataset;
  request.metrics = ara::metrics::MetricsSpec::all();
  return request;
}

/// One request as the client saw it.
struct Sample {
  Clock::time_point sent;
  double latency_s = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  bool traced = false;
  std::uint64_t request_id = 0;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::size_t attempted = 0;
  std::size_t rejected = 0;
  std::vector<std::string> failures;
};

/// When the measuring window closes: at `close` once at least
/// `min_samples` checked replies are in (a traced run counts its traced
/// replies), and never later than `cap`.
struct Window {
  Clock::time_point open;
  Clock::time_point close;
  Clock::time_point cap;
  std::size_t min_samples = 0;
  std::atomic<std::size_t> samples{0};

  bool done(Clock::time_point now) const {
    return now >= cap || (now >= close && samples.load() >= min_samples);
  }
};

/// One tenant's closed loop: send, wait for the reply, check it, repeat
/// until the window closes. The first `warm` requests are not logged.
/// In a traced run every other request is traced.
void client_loop(const ara::serve::Endpoint& endpoint, const char* tenant,
                 std::uint64_t id_base, std::size_t warm, bool traced_run,
                 const ara::metrics::MetricsReport& expected, Window& window,
                 ClientLog& log) {
  ara::serve::ServeClient client(endpoint);
  for (std::uint64_t n = 0;; ++n) {
    const auto sent = Clock::now();
    const bool warming = n < warm;
    if (!warming && window.done(sent)) break;
    const std::uint64_t rid = id_base + n;
    const ara::serve::ServeReply reply = client.call(quote_request(tenant, rid));
    const auto received = Clock::now();
    if (warming) continue;
    ++log.attempted;
    if (reply.status != ara::serve::Status::kOk) {
      if (ara::serve::is_backpressure(reply.status)) ++log.rejected;
      log.failures.push_back(std::string("request ") + std::to_string(rid) +
                             " answered " +
                             std::string(ara::serve::status_name(reply.status)) +
                             ": " + reply.message);
      continue;
    }
    if (reply.request_id != rid || !same_bits(reply.report, expected)) {
      log.failures.push_back("request " + std::to_string(rid) +
                             " differs from the in-process session.run");
      continue;
    }
    Sample s;
    s.sent = sent;
    s.latency_s = seconds_between(sent, received);
    s.queue_ms = reply.queue_ms;
    s.service_ms = reply.wall_seconds * 1e3;
    s.traced = traced_run && n % 2 == 1;
    s.request_id = rid;
    log.samples.push_back(s);
    if (s.traced == traced_run) ++window.samples;
  }
}

}  // namespace

void run_serve_quotes(Env& env, LayerFacts& facts) {
  const std::string dir = env.opt.workdir + "/serve";
  const std::string socket = env.opt.workdir + "/serve.sock";
  Dataset data;
  std::unique_ptr<ServeStack> stack;
  const std::vector<double> setup_s =
      timed_setup(env, [&] {
        stack.reset();
        data = book_dataset(kServeTrials, env.opt.seed, kServeCatalogue);
        write_dataset(data, dir);
        stack = std::make_unique<ServeStack>(dir, socket, env.threads);
      });
  env.inputs_digest = digest_dataset(dir);

  // What every reply must equal: the same analysis run in-process.
  ara::metrics::MetricsReport expected;
  {
    ara::AnalysisSession session(
        ara::ExecutionPolicy::with_engine(kServeEngine), env.threads);
    ara::AnalysisRequest request;
    request.portfolio = &stack->workload->portfolio;
    request.yet = &stack->workload->yet;
    request.metrics = ara::metrics::MetricsSpec::all();
    request.ylt_retention = ara::YltRetention::kDiscard;
    expected = session.run(request).metrics;
  }

  if (env.tracer == nullptr) data = Dataset{};  // the traced pass needs it
  // The service keeps its own copy of the dataset; from here on the
  // peak resident set is the program's.
  reset_peak_rss();

  // Enough replies for a p95 with ten samples beyond it, in both the
  // untraced set and a traced run's traced set.
  constexpr std::size_t kMinSamples = 220;
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  Window window;
  window.open = Clock::now();
  window.close = window.open + seconds(env.opt.seconds);
  window.cap = window.open + seconds(std::max(3.0 * env.opt.seconds, 60.0));
  window.min_samples = kMinSamples;

  std::vector<ClientLog> logs(std::size(kConnections));
  {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < std::size(kConnections); ++i) {
      clients.emplace_back([&, i] {
        try {
          client_loop(stack->server->endpoint(), kConnections[i],
                      (i + 1) * 1000000, 2, env.tracer != nullptr, expected,
                      window, logs[i]);
        } catch (const std::exception& e) {
          logs[i].failures.push_back(std::string("client: ") + e.what());
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }

  std::vector<double> latency;  // untraced, seconds
  std::size_t completed = 0;
  Clock::time_point first_sent = window.cap;
  Clock::time_point last_done = window.open;
  for (ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.attempted; ++i) {
      env.report.attempt(i < log.samples.size());
    }
    for (const std::string& f : log.failures) env.report.note("FAILED: " + f);
    if (log.failures.size() > log.attempted - log.samples.size()) {
      env.report.fail("a client connection failed");
    }
    facts.serve_rejected += log.rejected;
    for (const Sample& s : log.samples) {
      ++completed;
      first_sent = std::min(first_sent, s.sent);
      last_done = std::max(last_done, s.sent + seconds(s.latency_s));
      if (!s.traced) {
        latency.push_back(s.latency_s);
        continue;
      }
      Tracer& tr = *env.tracer;
      const long root = tr.record("serve.request", s.sent, s.latency_s, -1,
                                  s.request_id);
      tr.record("serve.queue", s.sent, s.queue_ms / 1e3, root, s.request_id);
      tr.record("serve.service", s.sent, s.service_ms / 1e3, root,
                s.request_id);
      facts.traced_latency_s.push_back(s.latency_s);
      facts.serve_queue_ms.push_back(s.queue_ms);
      facts.serve_service_ms.push_back(s.service_ms);
      const double transport_ms = s.latency_s * 1e3 - s.queue_ms - s.service_ms;
      facts.serve_transport_ms.push_back(transport_ms);
      facts.unattributed_s.push_back(transport_ms / 1e3);
    }
  }
  const double window_s = seconds_between(first_sent, last_done);
  const double quotes_per_s = static_cast<double>(completed) / window_s;
  env.report.note("served " + std::to_string(completed) +
                  " requests in " + std::to_string(window_s) +
                  " s: " + std::to_string(quotes_per_s) + " quotes/s");
  if (percentile_supported(latency.size(), 0.95)) {
    env.report.note("latency p95 " +
                    std::to_string(ara::metrics::quantile(latency, 0.95) * 1e3) +
                    " ms over " + std::to_string(latency.size()) + " requests");
  }
  note_spread(env, "serve_quotes.request", latency);
  if (latency.size() < kMinOps) {
    env.report.fail("serve_quotes completed too few requests to measure");
  }

  if (env.tracer == nullptr) {
    const double rss_mb = peak_rss_mb();
    stack.reset();
    report_end_to_end(env, setup_s, latency,
                      quotes_per_s * static_cast<double>(kServeTrials),
                      completed, rss_mb);
    return;
  }

  facts.untraced_latency_s = latency;
  facts.has_serve = true;
  facts.yet_resident_bytes =
      static_cast<double>(stack->workload->yet.memory_bytes());

  // The codec of this workload's own request and reply.
  ara::serve::ServeReply reply;
  reply.status = ara::serve::Status::kOk;
  reply.report = expected;
  const ara::serve::ServeRequest request = quote_request("t0", 1);
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    const ara::serve::ServeRequest req =
        ara::serve::decode_request(ara::serve::encode_request(request));
    const ara::serve::ServeReply rep =
        ara::serve::decode_reply(ara::serve::encode_reply(reply));
    facts.serve_codec_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    if (req.dataset != request.dataset || !same_bits(rep.report, expected)) {
      env.report.fail("serve codec round trip changed the payload");
      break;
    }
  }
  stack.reset();

  // The kernel-side layers of one request (tables already warm).
  for (std::size_t i = 0; i < 3; ++i) {
    LayerPassSpec pass;
    pass.bind = false;
    pass.single_thread = true;
    layer_pass(env, facts, data.portfolio, data.yet, pass, 9000000 + i);
  }
}

}  // namespace perfbench
