/**
 * @file
 * Workload cosad-random: Poisson load against an in-process cosad
 * daemon on loopback, auth on for four tenant keys with interactive,
 * normal and batch priorities. Each request is a small Random-scheduler
 * job with use_cache off, the body of bench/tab_daemon_throughput.cpp
 * (two layers, 240 samples), so its work is HTTP/JSON, auth,
 * admission, queueing, the mapper and the evaluator, while the solver
 * and the cachestore are bypassed.
 *
 * Arrivals follow a seeded Poisson schedule. Four generator threads
 * each hold one keep-alive connection and carry one request at a time
 * (POST, then its /events stream to the final line), so at most four
 * requests are in flight. A request is timed from when it was due, not
 * from when a generator got to it: time spent waiting for a free
 * generator counts against the daemon, whose latency keeps the
 * generators busy. Per rate, the run also reports how busy the four
 * generators were, so a missed limit can be traced to them.
 *
 * The generator threads busy-wait (yielding) for due times and for
 * responses instead of sleeping. On a virtual machine, waking an idle
 * vCPU costs hundreds of microseconds that vary with the host's load;
 * with the vCPUs kept busy, the latencies measure the daemon's work
 * and queueing, and repeat from run to run.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/wire.hpp"

namespace perfbench {

using namespace cosa;

namespace {

constexpr int kTenants = 4;

/** The rates searched for max_rps: kBaseRate * 2^(k/8) requests/s,
 *  k = 0..kTopStep (50 to 6400). */
constexpr double kBaseRate = 50.0;
constexpr int kTopStep = 56;
/** The reference rate, 100/s: its latencies are the end-to-end req_*
 *  metrics. */
constexpr int kReferenceStep = 8;
/** max_rps is the highest searched rate whose p99 latency stays within
 *  this limit with no growing backlog (BENCHMARK.json). Host stalls
 *  on a shared machine reach tens of milliseconds, so the limit is set
 *  well above them: a rate misses it when the daemon cannot keep up. */
constexpr double kP99LimitMs = 200.0;
/** Requests per searched rate: ten fall beyond its p99. */
constexpr int kRungRequests = 1000;

/** Distinct job bodies: 8 layer shapes for each of the 4 tenants. */
constexpr int kShapes = 8;
constexpr int kBodies = kShapes * kTenants;

double
stepRate(int step)
{
    return kBaseRate * std::exp2(step / 8.0);
}

/** The body bench/tab_daemon_throughput.cpp sends for tenant
 *  @p body / kShapes and layer shape @p body % kShapes (tenant 0
 *  interactive, odd tenants batch, the rest normal). */
std::string
jobBody(int body)
{
    const int tenant = body / kShapes, shape = body % kShapes;
    const char* priority = tenant == 0         ? "interactive"
                           : tenant % 2 == 1 ? "batch"
                                               : "normal";
    return "{\"workloads\":[{\"name\":\"bench\",\"layers\":[\"1_7_32_" +
           std::to_string(16 + shape) +
           "_1\",\"3_14_32_32_1\"]}],\"arch\":\"simba\","
           "\"scheduler\":\"random\",\"priority\":\"" +
           priority +
           "\",\"use_cache\":false,\"random\":{\"max_samples\":240,"
           "\"target_valid\":240,\"seed\":" +
           std::to_string(100 + tenant) + "}}";
}

std::string
apiKey(int tenant)
{
    return "perfbench-key-" + std::to_string(tenant);
}

struct Request
{
    int body = 0;
    int tenant = 0; //!< body / kShapes
    double offset = 0.0; //!< due time from the rung's start
    double due = 0.0, sent = 0.0, accepted = 0.0, done = 0.0;
    std::uint64_t id = 0;
    bool ok = false;
};

/** The bytes of the "results" member the daemon splices verbatim into
 *  a finished job's status body. */
std::string
splicedResults(const std::string& body)
{
    const std::string open = "\"results\":";
    const std::string close = ",\"provenance\":";
    const std::size_t begin = body.find(open);
    const std::size_t end = body.rfind(close);
    if (begin == std::string::npos || end == std::string::npos ||
        end < begin + open.size())
        return "";
    return body.substr(begin + open.size(), end - begin - open.size());
}

/**
 * One persistent keep-alive connection to the daemon, owned by one
 * generator thread. server::Client dials a fresh connection per call;
 * at hundreds of requests a second that leaves thousands of TIME_WAIT
 * sockets behind, which slow later connects and carry over from one
 * benchmark run into the next.
 */
class WireConnection
{
  public:
    explicit WireConnection(int port) : port_(port) {}
    ~WireConnection() { drop(); }
    WireConnection(const WireConnection&) = delete;
    WireConnection& operator=(const WireConnection&) = delete;

    /** POST /v1/jobs with @p body under @p key. */
    StatusOr<server::HttpResponseParser::Response>
    submit(const std::string& body, const std::string& key)
    {
        if (Status sent = send("POST", "/v1/jobs", key, body); !sent.ok())
            return sent;
        server::HttpResponseParser parser;
        server::HttpResponseParser::Response response;
        for (;;) {
            const auto result = parser.next(&response);
            if (result == server::HttpResponseParser::Result::Ok)
                return response;
            if (result == server::HttpResponseParser::Result::Error)
                return failed("bad response: " + parser.errorText());
            if (Status read = receive(parser); !read.ok())
                return read;
        }
    }

    /** GET /v1/jobs/{id}/events; @p on_line sees every JSON line until
     *  the stream's terminal chunk. Returns the HTTP status. */
    StatusOr<int>
    events(std::uint64_t id, const std::string& key,
           const std::function<void(const std::string&)>& on_line)
    {
        if (Status sent = send("GET",
                               "/v1/jobs/" + std::to_string(id) + "/events",
                               key, "");
            !sent.ok())
            return sent;
        server::HttpResponseParser parser;
        std::string pending;
        for (;;) {
            std::string chunk;
            const auto result = parser.nextChunk(&chunk);
            if (result == server::HttpResponseParser::Result::Error)
                return failed("bad event stream: " + parser.errorText());
            if (result == server::HttpResponseParser::Result::Ok) {
                if (parser.headerStatus() != 200) {
                    drop(); // the body of a non-200 answer is unread
                    return parser.headerStatus();
                }
                if (chunk.empty())
                    return 200;
                pending += chunk;
                std::size_t newline;
                while ((newline = pending.find('\n')) != std::string::npos) {
                    on_line(pending.substr(0, newline));
                    pending.erase(0, newline + 1);
                }
                continue;
            }
            if (Status read = receive(parser); !read.ok())
                return read;
        }
    }

  private:
    Status
    send(const char* method, const std::string& target,
         const std::string& key, const std::string& body)
    {
        if (fd_ < 0) {
            fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(static_cast<std::uint16_t>(port_));
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                     sizeof(addr)) != 0)
                return failed(std::string("connect: ") + std::strerror(errno));
            const int one = 1;
            ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        std::string request = std::string(method) + " " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Authorization: Bearer " +
                              key + "\r\n";
        if (!body.empty())
            request += "Content-Type: application/json\r\nContent-Length: " +
                       std::to_string(body.size()) + "\r\n";
        request += "\r\n" + body;
        for (std::size_t sent = 0; sent < request.size();) {
            const ssize_t n = ::send(fd_, request.data() + sent,
                                     request.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return failed(std::string("send: ") + std::strerror(errno));
            sent += static_cast<std::size_t>(n);
        }
        return Status::Ok();
    }

    /** Busy-polls (yielding) rather than blocking; see the file comment. */
    Status
    receive(server::HttpResponseParser& parser)
    {
        char buffer[16 * 1024];
        ssize_t n;
        while ((n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT)) < 0 &&
               (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
            std::this_thread::yield();
        if (n <= 0)
            return failed("connection closed mid-response");
        parser.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
        return Status::Ok();
    }

    Status
    failed(const std::string& why)
    {
        drop();
        return Status{ErrorCode::kIoError, why};
    }

    void
    drop()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    int port_ = 0;
    int fd_ = -1;
};

/** Run one request: POST, then follow /events to the final line. */
void
runRequest(Request& r, WireConnection& wire, const std::string& body,
      Report& report, std::atomic<std::int64_t>& rejected)
{
    const std::string key = apiKey(r.tenant);
    r.sent = nowSec();
    StatusOr<server::HttpResponseParser::Response> submitted =
        wire.submit(body, key);
    r.accepted = nowSec();
    if (!submitted.ok()) {
        report.fail("submit: " + submitted.status().message());
        return;
    }
    if (submitted.value().status != 202) {
        if (submitted.value().status == 429)
            ++rejected;
        report.fail("submit answered " +
                    std::to_string(submitted.value().status));
        return;
    }
    StatusOr<json::Value> accepted = json::Value::parse(submitted.value().body);
    if (!accepted.ok() || accepted.value().getInt("id", 0) <= 0) {
        report.fail("submit answer without an id");
        return;
    }
    r.id = static_cast<std::uint64_t>(accepted.value().getInt("id", 0));
    bool finished = false, all_found = true;
    StatusOr<int> streamed =
        wire.events(r.id, key, [&](const std::string& line) {
            if (line.find("\"done\":true") != std::string::npos) {
                r.done = nowSec();
                finished = true;
            } else if (line.find("\"found\":false") != std::string::npos) {
                all_found = false;
            }
        });
    if (!streamed.ok() || streamed.value() != 200 || !finished) {
        report.fail("event stream of job " + std::to_string(r.id) +
                    " ended early");
        return;
    }
    if (!all_found)
        report.wrong("job " + std::to_string(r.id) + ": a layer not found");
    r.ok = true;
}

/** One rate's requests, from their seeded Poisson schedule to their
 *  outcomes. */
struct Rung
{
    double rate = 0.0;
    std::vector<Request> requests;
    double wall = 0.0;

    // Summary, filled by summarize().
    double p50_ms = 0.0, p99_ms = 0.0, late_p99_ms = 0.0;
    /** Share of the rung's wall time the four generators had a
     *  request in flight: near 1, they, not the arrivals, set the pace. */
    double generators_busy = 0.0;
    bool backlog = false, meets_limit = false;
};

/**
 * Send @p count requests at Poisson @p rate. The arrivals, bodies and
 * tenants follow @p seed only, so a rate sees the same requests
 * whatever the search visited before it. Returns after the last one
 * finished. With @p traced, every other request is recorded as spans.
 */
Rung
runRung(double rate, int count, std::uint64_t seed, int port, bool traced,
        Report& report, std::atomic<std::int64_t>& rejected)
{
    Rung rung;
    rung.rate = rate;
    Rng rng(seed);
    double t = 0.0;
    for (int i = 0; i < count; ++i) {
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        Request r;
        r.offset = t;
        r.body = static_cast<int>(rng.nextBelow(kBodies));
        r.tenant = r.body / kShapes;
        rung.requests.push_back(r);
    }

    const double start = nowSec() + 0.05;
    for (Request& r : rung.requests)
        r.due = start + r.offset;
    std::atomic<std::size_t> next{0};
    auto generator = [&] {
        WireConnection wire(port);
        for (std::size_t i = next++; i < rung.requests.size(); i = next++) {
            Request& r = rung.requests[i];
            while (nowSec() < r.due)
                std::this_thread::yield();
            report.attempt();
            runRequest(r, wire, jobBody(r.body), report, rejected);
            // Every other request is traced, so the two halves give the
            // tracing overhead. Each request gets its own trace lane: a
            // late request starts before its generator finished the
            // previous one.
            if (traced && r.ok && i % 2 == 0) {
                SpanLog& log = SpanLog::get();
                const int lane = 1000 + static_cast<int>(i);
                log.add("bench", "request", r.due, r.done, lane);
                log.add("bench", "gen_late", r.due, r.sent, lane);
                log.add("server", "server.submit", r.sent, r.accepted, lane);
                log.add("server", "server.result_wait", r.accepted, r.done,
                        lane);
            }
        }
    };
    std::vector<std::thread> threads;
    for (int g = 0; g < kWidth; ++g)
        threads.emplace_back(generator);
    for (std::thread& thread : threads)
        thread.join();
    rung.wall = nowSec() - start;
    return rung;
}

/** Latency from due time (a failed request misses the limit), the
 *  generators' lateness and load, and whether the limit is met. */
void
summarize(Rung& rung)
{
    std::vector<double> latency, late, late_tail;
    double in_flight = 0.0;
    const std::size_t n = rung.requests.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Request& r = rung.requests[i];
        latency.push_back(r.ok ? (r.done - r.due) * 1e3 : 1e9);
        late.push_back((r.sent - r.due) * 1e3);
        if (4 * i >= 3 * n)
            late_tail.push_back((r.sent - r.due) * 1e3);
        if (r.ok)
            in_flight += r.done - r.sent;
    }
    rung.p50_ms = median(latency);
    rung.p99_ms = percentile(latency, 0.99);
    rung.late_p99_ms = percentile(late, 0.99);
    rung.generators_busy = in_flight / (rung.wall * kWidth);
    // A growing backlog: requests in the last quarter still leave late.
    rung.backlog = median(late_tail) > kP99LimitMs / 2.0;
    rung.meets_limit = rung.p99_ms <= kP99LimitMs && !rung.backlog;
}

std::string
rungJson(const Rung& rung)
{
    char row[320];
    std::snprintf(row, sizeof(row),
                  "{\"rate\": %.4g, \"requests\": %zu, \"p50_ms\": %.4f, "
                  "\"p99_ms\": %.4f, \"late_p99_ms\": %.4f, "
                  "\"generators_busy\": %.3f, \"backlog\": %s, "
                  "\"meets_limit\": %s}",
                  rung.rate, rung.requests.size(), rung.p50_ms, rung.p99_ms,
                  rung.late_p99_ms, rung.generators_busy,
                  rung.backlog ? "true" : "false",
                  rung.meets_limit ? "true" : "false");
    return row;
}

} // namespace

void
runCosadRandom(const Options& opts, Report& report)
{
    server::DaemonConfig config;
    config.port = 0;
    config.num_handler_threads = kWidth;
    config.service.num_threads = kWidth;
    // The daemon keeps the reference rate's jobs until they are checked
    // below, and no more, so memory does not depend on the search.
    const int reference_requests =
        std::max(kRungRequests,
                 static_cast<int>(opts.seconds * stepRate(kReferenceStep)));
    config.max_finished_jobs = static_cast<std::size_t>(reference_requests);
    for (int t = 0; t < kTenants; ++t) {
        server::TenantSpec spec;
        spec.name = "tenant" + std::to_string(t);
        spec.key = apiKey(t);
        config.tenants.push_back(std::move(spec));
    }

    // Set-up, timed from process start by measureSetup(): start the
    // daemon and wait until it answers /healthz.
    if (!opts.setup_only)
        report.set("setup_s", measureSetup(opts, {}, report), "s");
    server::Daemon daemon{config};
    if (!daemon.start().ok()) {
        report.fail("daemon failed to start");
        return;
    }
    StatusOr<server::WireResponse> health =
        server::Client("127.0.0.1", daemon.port()).healthz();
    if (!health.ok() || health.value().status != 200) {
        report.fail("daemon did not answer /healthz");
        return;
    }
    if (opts.setup_only) {
        signalReady();
        return;
    }

    // In-process references for every distinct body (untimed): the
    // bytes each wire answer must equal, and the schedules' totals.
    std::vector<std::string> ref_bytes(kBodies);
    std::vector<std::vector<NetworkResult>> refs(kBodies);
    std::vector<std::string> bodies;
    double cycles = 0.0, energy = 0.0;
    for (int b = 0; b < kBodies; ++b) {
        bodies.push_back(jobBody(b));
        StatusOr<json::Value> parsed = json::Value::parse(bodies.back());
        StatusOr<ScheduleRequest> request =
            parsed.ok() ? server::requestFromJson(
                              parsed.value(),
                              "tenant" + std::to_string(b / kShapes))
                        : StatusOr<ScheduleRequest>(parsed.status());
        if (!request.ok()) {
            report.wrong("reference body rejected: " +
                         request.status().message());
            return;
        }
        SubmitResult submitted = daemon.service().submit(request.value());
        if (!submitted) {
            report.fail("reference job rejected");
            return;
        }
        refs[b] = submitted.job().wait();
        for (const NetworkResult& net : refs[b]) {
            checkNetwork(net, report);
            cycles += net.total_cycles;
            energy += net.total_energy_pj;
        }
        ref_bytes[b] = resultBytes(refs[b]);
    }

    metrics::Histogram& solve_hist =
        metrics::MetricsRegistry::global().histogram(
            "cosa_solve_time_seconds", "", {{"scheduler", "Random"}});
    const double busy_before = solve_hist.sum();
    std::atomic<std::int64_t> rejected{0};
    auto rungSeed = [&](int step) {
        return opts.seed * 0x9E3779B97F4A7C15ULL + 11 +
               static_cast<std::uint64_t>(step);
    };

    // The reference rate runs for the whole --seconds: its latencies
    // are req_p50_ms and req_p99_ms.
    const double reference_start = nowSec();
    Rung reference = runRung(stepRate(kReferenceStep), reference_requests,
                             rungSeed(kReferenceStep), daemon.port(),
                             opts.trace, report, rejected);
    const double reference_wall = nowSec() - reference_start;
    const double busy = solve_hist.sum() - busy_before;
    summarize(reference);

    // Correctness outside the timed windows: a seeded sample of wire
    // answers must equal the in-process bytes for the same body.
    int checked = 0;
    Rng pick(opts.seed + 77);
    for (int s = 0; s < 32; ++s) {
        const Request& r =
            reference.requests[pick.nextBelow(reference.requests.size())];
        if (!r.ok)
            continue;
        StatusOr<server::WireResponse> status =
            server::Client("127.0.0.1", daemon.port(), apiKey(r.tenant))
                .jobStatus(r.id);
        if (!status.ok() || status.value().status != 200) {
            report.wrong("job " + std::to_string(r.id) + ": status lookup");
            continue;
        }
        ++checked;
        if (splicedResults(status.value().body) != ref_bytes[r.body])
            report.wrong("job " + std::to_string(r.id) +
                         ": wire bytes differ from the in-process result");
    }
    report.detail("wire_bytes_checked", checked);

    // max_rps: bisect the rate steps for the highest one that meets the
    // limit, taking a step to meet it when a faster one does. The
    // reference rate is the first step tried.
    std::string rows = "[" + rungJson(reference);
    int passing = reference.meets_limit ? kReferenceStep : -1;
    int failing = reference.meets_limit ? kTopStep + 1 : kReferenceStep;
    while (failing - passing > 1) {
        const int step = (passing + failing) / 2;
        Rung rung = runRung(stepRate(step), kRungRequests, rungSeed(step),
                            daemon.port(), false, report, rejected);
        summarize(rung);
        (rung.meets_limit ? passing : failing) = step;
        rows += ", " + rungJson(rung);
    }
    report.detail("rates", rows + "]");
    report.detail("p99_limit_ms", kP99LimitMs);

    std::vector<double> latency, service, rtt, result_wait, late;
    std::vector<double> traced, untraced;
    for (std::size_t i = 0; i < reference.requests.size(); ++i) {
        const Request& r = reference.requests[i];
        latency.push_back(r.ok ? (r.done - r.due) * 1e3 : 1e9);
        late.push_back((r.sent - r.due) * 1e3);
        if (!r.ok)
            continue;
        service.push_back(r.done - r.sent);
        rtt.push_back((r.accepted - r.sent) * 1e3);
        result_wait.push_back((r.done - r.accepted) * 1e3);
        (i % 2 == 0 ? traced : untraced).push_back(r.done - r.due);
    }
    report.set("net_solve_s", median(service), "s");
    report.set("req_p50_ms", median(latency), "ms");
    report.set("req_p99_ms", percentile(latency, 0.99), "ms");
    report.set("max_rps", passing >= 0 ? stepRate(passing) : 0.0, "1/s");
    report.set("sched_cycles", cycles, "cycles");
    report.set("sched_energy_uj", energy * 1e-6, "uJ");
    report.detail("reference_rate", stepRate(kReferenceStep));
    report.detail("reference_requests", static_cast<double>(latency.size()));


    if (!opts.trace)
        return;

    report.set("bench.gen_late_p99_ms", percentile(late, 0.99), "ms");
    report.set("bench.trace_overhead_pct",
               (median(traced) / median(untraced) - 1.0) * 100.0, "pct");
    report.set("server.submit_rtt_p50_ms", median(rtt), "ms");
    report.set("server.submit_rtt_p99_ms", percentile(rtt, 0.99), "ms");
    report.set("server.result_wait_p50_ms", median(result_wait), "ms");
    report.set("server.rejected_429", static_cast<double>(rejected.load()),
               "count");
    reportEngine(daemon.service().stats(), busy, reference_wall, report);

    SpanLog::get().setEnabled(true);
    double samples = 0.0, valid = 0.0;
    std::vector<double> evals;
    for (const auto& ref : refs) {
        for (const NetworkResult& net : ref) {
            samples += static_cast<double>(net.search.samples);
            valid += static_cast<double>(net.search.valid_evaluated);
            for (const LayerScheduleResult& lr : net.layers) {
                for (int rep = 0; rep < 3; ++rep) {
                    const double t0 = nowSec();
                    Span span("model", "model.eval");
                    defaultEvaluator().evaluate(lr.result.mapping, lr.layer,
                                                ArchSpec::simbaBaseline());
                    evals.push_back(nowSec() - t0);
                }
            }
        }
    }
    report.set("mapper.samples", samples / kBodies, "count");
    report.set("mapper.valid_ratio", valid / std::max(1.0, samples), "ratio");
    report.set("model.eval_us", median(evals) * 1e6, "us");
    measureCodec(bodies, refs, report);
    SpanLog::get().setEnabled(false);
    foldTrace(opts, "request", report);
}

} // namespace perfbench
