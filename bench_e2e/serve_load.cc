/**
 * @file
 * serve: an in-process serve::Server over loopback, driven open-loop
 * by one generator thread (this one) on four connections.
 *
 * Mix: 70% rank / 30% predict; 90% one architecture / 10% sixteen;
 * each row drawn half from a pre-warmed 256-architecture hot set and
 * half from a never-repeating stream. Requests are due on a fixed
 * schedule and timed from when they were due, so a stall also charges
 * the requests queued behind it; the generator reports how late it
 * sent. Phase A climbs a ladder of six rates; phase B holds the
 * reference rate while search jobs run back to back on the server.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/json.h"
#include "common/obs.h"
#include "serve/proto.h"
#include "serve/server.h"
#include "workloads.h"

namespace hwpr::e2e
{

namespace
{

constexpr std::size_t kConns = 4;
constexpr std::size_t kHotSet = 256;
/** Every 64th response is re-computed in-process and compared. */
constexpr std::size_t kVerifyEvery = 64;
/**
 * p99 limit of serve_max_qps. On the 4-core reference machine even a
 * lightly loaded server (0.125 x C) answers p99 in 4-6 ms: 3% of the
 * mix are 16-architecture predicts on fresh architectures. 10 ms sits
 * above that and below the 0.75 x C tail (10-20 ms).
 */
constexpr double kLatencyLimitUs = 10000.0;
/** A rung whose generator ran later than this (p99) is not counted:
 *  the load was not offered on schedule. */
constexpr double kMaxLagUs = 1000.0;
/**
 * C: closed-loop throughput of this mix with one request in flight
 * per connection (four connections, pool of two), measured with
 * `bench_e2e --calibrate` on the 4-core reference machine (1400-1490
 * requests/s over four runs). The ladder and the reference rate are
 * fixed fractions of it, so every commit is offered the same load.
 */
constexpr double kClosedLoopQps = 1450.0;
constexpr double kLadder[] = {0.125, 0.25, 0.5, 0.75, 1.0, 1.25};
/**
 * The reference rung, 0.25 x C, carries op_ms_p50. At 0.5 x C the
 * server is busy enough that queueing sets the median, and it doubled
 * (0.9 to 1.9 ms) when the shared machine ran 20% slower.
 */
constexpr std::size_t kReferenceRung = 1;
/** Requests in flight per connection in the saturation phase: enough
 *  that the server never waits for the generator. */
constexpr std::size_t kSaturationDepth = 8;

/** One request, rendered ahead of its due time. */
struct Request
{
    bool rank = false;
    std::vector<nasbench::Architecture> archs;
    std::string frame;
};

/** A response kept for the in-process bitwise comparison. */
struct Sampled
{
    bool rank;
    std::vector<nasbench::Architecture> archs;
    std::vector<double> values;
};

/** Draws the request mix from the run seed. */
class Mix
{
  public:
    Mix(std::uint64_t seed, FreshArchs &fresh,
        const std::vector<nasbench::Architecture> &hot)
        : rng_(seed), fresh_(fresh), hot_(hot)
    {}

    std::vector<Request>
    take(std::size_t n, std::uint64_t first_id)
    {
        std::vector<Request> out(n);
        for (std::size_t i = 0; i < n; ++i) {
            Request &q = out[i];
            q.rank = rng_.uniform() < 0.7;
            const std::size_t rows = rng_.uniform() < 0.1 ? 16 : 1;
            for (std::size_t j = 0; j < rows; ++j)
                q.archs.push_back(rng_.uniform() < 0.5
                                      ? hot_[rng_.index(hot_.size())]
                                      : fresh_.next());
            std::string body = q.rank ? "{\"op\": \"rank\", \"id\": "
                                      : "{\"op\": \"predict\", \"id\": ";
            body += std::to_string(first_id + i) + ", \"archs\": [";
            for (std::size_t j = 0; j < rows; ++j) {
                const auto &a = q.archs[j];
                body += j ? ", {\"space\": \"" : "{\"space\": \"";
                body += serve::spaceName(a.space);
                body += "\", \"genome\": [";
                for (std::size_t g = 0; g < a.genome.size(); ++g) {
                    if (g)
                        body += ", ";
                    body += std::to_string(a.genome[g]);
                }
                body += "]}";
            }
            body += "]}";
            q.frame = serve::encodeFrame(body);
        }
        return out;
    }

  private:
    Rng rng_;
    FreshArchs &fresh_;
    const std::vector<nasbench::Architecture> &hot_;
};

/** Non-blocking loopback connection with its framing state. */
class Conn
{
  public:
    explicit Conn(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        HWPR_CHECK(fd_ >= 0, "socket: ", std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        HWPR_CHECK(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                             sizeof(addr)) == 0,
                   "connect: ", std::strerror(errno));
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }
    bool wantsWrite() const { return off_ < out_.size(); }

    void queue(const std::string &frame) { out_ += frame; }

    /** Write what the socket takes; false on a dead peer. */
    bool
    flush()
    {
        while (off_ < out_.size()) {
            const ssize_t n =
                ::write(fd_, out_.data() + off_, out_.size() - off_);
            if (n > 0) {
                off_ += std::size_t(n);
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else {
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                return false;
            }
        }
        if (off_ == out_.size()) {
            out_.clear();
            off_ = 0;
        }
        return true;
    }

    /** Read everything available; false on a closed or bad stream. */
    bool
    pull()
    {
        char buf[65536];
        while (true) {
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n > 0) {
                reader_.feed(buf, std::size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return !reader_.poisoned();
            return false;
        }
    }

    bool next(std::string &payload) { return reader_.next(payload); }

  private:
    int fd_ = -1;
    serve::FrameReader reader_;
    std::string out_;
    std::size_t off_ = 0;
};

/** Back-to-back search jobs on the server, for phase B. */
struct JobSchedule
{
    std::size_t population = 64;
    std::size_t generations = 12;
    std::uint64_t seed = 1;
};

/** How a phase offers its requests. */
struct Load
{
    /** Open loop: requests per second on a fixed schedule; 0 selects
     *  the closed loop. */
    double rate = 0.0;
    /** Closed loop: requests kept in flight per connection. */
    std::size_t depth = 1;
    /** Keep one search job running on the server for the phase. */
    const JobSchedule *jobs = nullptr;
};

/** What one load phase measured. */
struct Phase
{
    double achievedQps = 0.0;
    std::size_t sent = 0;
    std::size_t answered = 0;
    std::size_t failed = 0;
    std::vector<double> latencyUs; ///< due -> answer
    std::vector<double> wireUs;    ///< sent -> answer
    std::vector<double> lagUs;     ///< due -> sent
    std::vector<Sampled> samples;
    std::vector<std::string> problems;
    std::vector<double> jobSec;
};

/** Server on its own thread plus the generator's connections. */
class Live
{
  public:
    Live(std::unique_ptr<core::Surrogate> served,
         std::unique_ptr<core::Surrogate> reference,
         const std::string &jobs_dir)
        : served_(std::move(served)), reference_(std::move(reference))
    {
        serve::ServerConfig sc;
        sc.jobsDir = jobs_dir;
        server_ = std::make_unique<serve::Server>(*served_, sc);
        std::string err;
        HWPR_CHECK(server_->start(err), "server start: ", err);
        thread_ = std::thread([this] { server_->run(); });
        for (std::size_t c = 0; c < kConns; ++c)
            conns_.push_back(std::make_unique<Conn>(server_->port()));
        control_ = std::make_unique<Conn>(server_->port());
    }

    ~Live()
    {
        conns_.clear();
        control_.reset();
        server_->requestStop();
        thread_.join();
    }

    Live(const Live &) = delete;
    Live &operator=(const Live &) = delete;

    /** Offer @p reqs (ids from @p first_id) as @p load says and check
     *  every answer. */
    Phase drive(const std::vector<Request> &reqs, std::uint64_t first_id,
                const Load &load);

    const core::Surrogate &reference() const { return *reference_; }

  private:
    std::unique_ptr<core::Surrogate> served_;
    std::unique_ptr<core::Surrogate> reference_;
    std::unique_ptr<serve::Server> server_;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::unique_ptr<Conn> control_;
    std::thread thread_;
    std::size_t jobsSubmitted_ = 0;
};

Phase
Live::drive(const std::vector<Request> &reqs, std::uint64_t first_id,
            const Load &load)
{
    Phase ph;
    const std::size_t n = reqs.size();
    const double rate = load.rate;
    const JobSchedule *jobs = load.jobs;
    std::vector<double> due(n, 0.0), sent(n, 0.0);
    std::vector<char> done(n, 0);
    std::vector<std::size_t> connOf(n, 0), inFlight(kConns, 0);
    const auto send = [&](std::size_t i, std::size_t c) {
        sent[i] = nowSec();
        connOf[i] = c;
        conns_[c]->queue(reqs[i].frame);
        inFlight[c]++;
    };
    const double start = nowSec() + 1e-3;
    for (std::size_t i = 0; rate > 0.0 && i < n; ++i)
        due[i] = start + double(i) / rate;

    // Job control state (phase B).
    bool jobActive = false, statusPending = false;
    double jobStart = 0.0, lastStatus = 0.0;
    std::string jobId;

    const auto controlSend = [&](const std::string &body) {
        control_->queue(serve::encodeFrame(body));
        if (!control_->flush())
            ph.problems.push_back("control connection lost");
    };

    std::size_t next = 0, settled = 0;
    double lastAnswer = start;
    std::string payload;

    const auto onAnswer = [&](std::size_t c, double t) {
        json::Value v;
        try {
            v = json::parse(payload);
        } catch (const std::exception &e) {
            ph.problems.push_back(std::string("bad response: ") + e.what());
            return;
        }
        const double idNum = v.numberOr("id", -1.0);
        if (idNum < double(first_id) || idNum >= double(first_id + next) ||
            done[std::size_t(idNum - double(first_id))]) {
            ph.problems.push_back("unexpected answer: " +
                                  payload.substr(0, 80));
            return;
        }
        const auto i = std::size_t(idNum - double(first_id));
        const json::Value *ok = v.find("ok");
        const json::Value *preds = v.find("predictions");
        done[i] = 1;
        ++settled;
        inFlight[connOf[i]]--;
        if (!ok || !ok->isBool() || !ok->asBool() || connOf[i] != c ||
            !preds || !preds->isArray() ||
            preds->asArray().size() != reqs[i].archs.size()) {
            ++ph.failed;
            ph.problems.push_back("bad answer to request " +
                                  std::to_string(i));
            return;
        }
        ++ph.answered;
        lastAnswer = t;
        ph.latencyUs.push_back((t - due[i]) * 1e6);
        ph.wireUs.push_back((t - sent[i]) * 1e6);
        ph.lagUs.push_back((sent[i] - due[i]) * 1e6);
        if ((first_id + i) % kVerifyEvery == 0) {
            Sampled smp{reqs[i].rank, reqs[i].archs, {}};
            for (const json::Value &row : preds->asArray())
                for (const json::Value &x : row.asArray())
                    smp.values.push_back(x.asNumber());
            ph.samples.push_back(std::move(smp));
        }
    };

    const auto onJobReply = [&] {
        json::Value v;
        try {
            v = json::parse(payload);
        } catch (const std::exception &e) {
            ph.problems.push_back(std::string("bad job reply: ") + e.what());
            return;
        }
        const json::Value *ok = v.find("ok");
        if (!ok || !ok->isBool() || !ok->asBool()) {
            ph.problems.push_back("job request failed: " +
                                  payload.substr(0, 200));
            jobActive = statusPending = false;
            return;
        }
        if (v.stringOr("op", "") != "job")
            return;
        statusPending = false;
        const json::Value *status = v.find("status");
        const std::string state = status ? status->stringOr("state", "") : "";
        if (state == "failed") {
            ph.problems.push_back("job " + jobId + " failed");
            jobActive = false;
        } else if (state == "done") {
            ph.jobSec.push_back(nowSec() - jobStart);
            const json::Value *res = v.find("result");
            const json::Value *archs = res ? res->find("archs") : nullptr;
            if (!archs || !archs->isArray() ||
                archs->asArray().size() != jobs->population)
                ph.problems.push_back("job " + jobId + ": bad result");
            jobActive = false;
        }
    };

    // The generator spins rather than sleeping in poll(): a sleeping
    // client adds its own wake-up latency, which on a shared machine
    // varies more than the server being measured. Idle stretches are
    // traced as one gen.idle span each.
    std::vector<pollfd> fds(kConns + 1);
    const timespec noWait{0, 0};
    std::int64_t idleSpan = -1;
    Tracer &tracer = Tracer::instance();
    while (next < n || settled < next || jobActive) {
        const double now = nowSec();
        const bool sendDue =
            next < n && (rate > 0.0 ? due[next] <= now
                                    : std::any_of(inFlight.begin(),
                                                  inFlight.end(),
                                                  [&](std::size_t f) {
                                                      return f < load.depth;
                                                  }));
        const bool jobDue =
            jobs != nullptr &&
            ((!jobActive && next < n) ||
             (jobActive && !statusPending && now - lastStatus > 0.01));
        bool writeDue = false;
        for (std::size_t c = 0; c < kConns; ++c) {
            writeDue |= conns_[c]->wantsWrite();
            fds[c] = {conns_[c]->fd(), short(POLLIN), 0};
        }
        fds[kConns] = {control_->fd(), POLLIN, 0};
        const int ready =
            ::ppoll(fds.data(), nfds_t(fds.size()), &noWait, nullptr);
        if (!sendDue && !jobDue && !writeDue && ready <= 0) {
            if (idleSpan < 0 && tracer.enabled())
                idleSpan = tracer.open("gen.idle", next);
            // Answers that never come count as failures, not a hang.
            if (next == n && now - std::max(lastAnswer, sent[n - 1]) > 5.0)
                break;
            if (jobActive && now - jobStart > 60.0) {
                ph.problems.push_back("job " + jobId + " did not finish");
                break;
            }
            continue;
        }
        if (idleSpan >= 0) {
            tracer.close(idleSpan);
            idleSpan = -1;
        }

        if (sendDue || writeDue) {
            Span s("gen.send", next);
            if (rate > 0.0) {
                for (; next < n && due[next] <= now; ++next)
                    send(next, next % kConns);
            } else {
                for (std::size_t c = 0; c < kConns; ++c)
                    for (; next < n && inFlight[c] < load.depth; ++next) {
                        send(next, c);
                        due[next] = sent[next];
                    }
            }
            for (auto &c : conns_)
                if (c->wantsWrite() && !c->flush())
                    ph.problems.push_back("connection lost on write");
        }
        if (jobDue && !jobActive) {
            jobId = "job" + std::to_string(++jobsSubmitted_);
            controlSend("{\"op\": \"search\", \"job\": \"" + jobId +
                        "\", \"population\": " +
                        std::to_string(jobs->population) +
                        ", \"generations\": " +
                        std::to_string(jobs->generations) +
                        ", \"seed\": " +
                        std::to_string(jobs->seed + jobsSubmitted_) + "}");
            jobActive = true;
            jobStart = lastStatus = now;
        } else if (jobDue) {
            controlSend("{\"op\": \"job\", \"job\": \"" + jobId + "\"}");
            statusPending = true;
            lastStatus = now;
        }
        if (ready > 0) {
            Span s("gen.recv", next);
            for (std::size_t c = 0; c < kConns; ++c) {
                if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                    continue;
                if (!conns_[c]->pull())
                    ph.problems.push_back("connection closed by server");
                while (conns_[c]->next(payload))
                    onAnswer(c, nowSec());
            }
            if ((fds[kConns].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
                if (!control_->pull())
                    ph.problems.push_back("control connection closed");
                while (control_->next(payload))
                    onJobReply();
            }
        }
    }
    if (idleSpan >= 0)
        tracer.close(idleSpan);
    ph.sent = next;
    ph.failed += next - settled;
    const double first = rate > 0.0 ? start : (n ? sent[0] : start);
    ph.achievedQps = lastAnswer > first
                         ? double(ph.answered) / (lastAnswer - first)
                         : 0.0;
    return ph;
}

/** Compare sampled answers with in-process predict/rank on the second
 *  model copy, bit for bit. */
void
verifySamples(const Phase &ph, const core::Surrogate &ref, RunResult &r,
              const char *phase)
{
    core::BatchPlan plan;
    for (const Sampled &s : ph.samples) {
        const Matrix &m = s.rank ? ref.rankBatch(s.archs, plan)
                                 : ref.predictBatch(s.archs, plan);
        if (m.size() != s.values.size() ||
            std::memcmp(m.data(), s.values.data(),
                        sizeof(double) * m.size()) != 0)
            r.fail(std::string(phase) +
                   ": served answer differs from in-process " +
                   (s.rank ? "rankBatch" : "predictBatch"));
    }
}

/**
 * The server's own registry series. It records them whether or not
 * metrics are armed, so layer values come from the differences of
 * readings taken around each reference window.
 */
struct ServerSeries
{
    std::uint64_t batches = 0;
    std::uint64_t rows = 0;
    /** Bucket counts of serve.rank.us and serve.predict.us. */
    std::vector<double> rank, predict;
    std::vector<double> bounds;

    static ServerSeries
    read()
    {
        auto &reg = obs::Registry::global();
        ServerSeries s;
        s.batches = reg.counterValue("serve.batches");
        s.rows = reg.counterValue("serve.batch_rows");
        for (const char *op : {"rank", "predict"}) {
            const obs::Histogram *h =
                reg.findHistogram(std::string("serve.") + op + ".us");
            auto &dst = std::string(op) == "rank" ? s.rank : s.predict;
            if (h == nullptr)
                continue;
            s.bounds = h->bounds();
            for (std::size_t b = 0; b <= h->bounds().size(); ++b)
                dst.push_back(double(h->bucketCount(b)));
        }
        return s;
    }

    /** Add what the server recorded between readings @p a and @p b. */
    void
    add(const ServerSeries &a, const ServerSeries &b)
    {
        const auto addDelta = [](std::vector<double> &sum,
                                 const std::vector<double> &x,
                                 const std::vector<double> &y) {
            sum.resize(y.size(), 0.0);
            for (std::size_t i = 0; i < y.size(); ++i)
                sum[i] += y[i] - (i < x.size() ? x[i] : 0.0);
        };
        batches += b.batches - a.batches;
        rows += b.rows - a.rows;
        addDelta(rank, a.rank, b.rank);
        addDelta(predict, a.predict, b.predict);
        bounds = b.bounds;
    }
};

/** Linear-interpolated quantile of bucket counts (last bucket is the
 *  overflow, clamped to the last bound). */
double
bucketQuantile(const std::vector<double> &bounds,
               const std::vector<double> &counts, double q)
{
    double total = 0.0;
    for (double c : counts)
        total += c;
    if (total <= 0.0 || bounds.empty())
        return 0.0;
    const double target = q * total;
    double seen = 0.0, lo = 0.0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (counts[i] > 0.0 && seen + counts[i] >= target)
            return lo + (bounds[i] - lo) * (target - seen) / counts[i];
        seen += counts[i];
        lo = bounds[i];
    }
    return bounds.back();
}

/** Layer values of the server from the series @p d it recorded over
 *  the reference windows. */
void
serverLayers(const ServerSeries &d, RunResult &r)
{
    std::vector<double> both = d.rank;
    for (std::size_t i = 0; i < both.size() && i < d.predict.size(); ++i)
        both[i] += d.predict[i];
    r.layer["serve.batch_rows_mean"] =
        d.batches > 0 ? double(d.rows) / double(d.batches) : 0.0;
    r.layer["serve.server_us_p50.rank"] =
        bucketQuantile(d.bounds, d.rank, 0.5);
    r.layer["serve.server_us_p50.predict"] =
        bucketQuantile(d.bounds, d.predict, 0.5);
    r.layer["serve.wire_us_p50"] -= bucketQuantile(d.bounds, both, 0.5);
}

struct ServeSizes
{
    std::size_t samples;
    std::size_t epochs;
    /** Ladder rungs other than the reference rung. */
    double rungSec;
    double referenceSec;
    /** Requests of the saturation phase: fixed work, so its memory
     *  does not depend on how fast the server is. */
    std::size_t saturationRequests;
    double mixedSec;
    JobSchedule job;
};

ServeSizes
serveSizes(const RunConfig &cfg)
{
    ServeSizes s;
    s.samples = cfg.smoke ? 120 : 300;
    s.epochs = cfg.smoke ? 2 : 3;
    // The reference rung carries op_ms_p50, so it gets most of the
    // measuring time.
    s.rungSec = cfg.seconds * 0.05;
    s.referenceSec = cfg.seconds * 0.4;
    s.saturationRequests =
        std::size_t(cfg.seconds * 0.1 * 2.0 * kClosedLoopQps);
    s.mixedSec = cfg.seconds * 0.2;
    s.job.population = cfg.smoke ? 16 : 64;
    s.job.generations = cfg.smoke ? 3 : 12;
    s.job.seed = subSeed(cfg.seed, 6);
    return s;
}

/** A running server and the hot set its rank cache holds. */
struct ServeState
{
    std::vector<nasbench::Architecture> hot;
    std::unique_ptr<Live> live;
};

/** Label, fit and checkpoint a HW-PR-NAS model, then bring up a
 *  server on a fresh copy loaded from that checkpoint. */
std::unique_ptr<ServeState>
setUpServe(const RunConfig &cfg, const ServeSizes &sz)
{
    auto st = std::make_unique<ServeState>();
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    const std::string ckpt = cfg.outDir + "/serve_hwprnas.ckpt";
    const auto data = label(oracle, sz.samples, subSeed(cfg.seed, 1));
    saveChecked(*fitFamily("hwprnas", surrogateData(data), sz.epochs,
                           subSeed(cfg.seed, 30)),
                ckpt);
    std::unique_ptr<core::Surrogate> served = loadChecked(ckpt);
    std::unique_ptr<core::Surrogate> reference = loadChecked(ckpt);
    {
        // Freeze the rank path and fill the rank cache with the hot
        // set before the server sees a request.
        Span s("core.warm");
        st->hot = FreshArchs(subSeed(cfg.seed, 4)).take(kHotSet);
        core::BatchPlan plan;
        served->predictBatch(st->hot, plan);
        served->rankBatch(st->hot, plan);
    }
    Span s("serve.start");
    const std::string jobs = cfg.outDir + "/jobs";
    std::filesystem::remove_all(jobs);
    st->live = std::make_unique<Live>(std::move(served),
                                      std::move(reference), jobs);
    return st;
}

} // namespace

RunResult
runServe(const RunConfig &cfg)
{
    const ServeSizes sz = serveSizes(cfg);
    RunResult r;
    const auto st = setUp<ServeState>(r, cfg, "setup.serve",
                                      [&] { return setUpServe(cfg, sz); });
    FreshArchs fresh(subSeed(cfg.seed, 7));
    fresh.exclude(st->hot);
    Mix mix(subSeed(cfg.seed, 5), fresh, st->hot);
    std::uint64_t nextId = 0;
    std::vector<double> lag;
    // Renders @p count requests, offers them, and accounts every
    // answer.
    const auto run = [&](const Load &load, double count,
                         const char *name) {
        const auto reqs =
            mix.take(std::max<std::size_t>(1, std::size_t(count)), nextId);
        Phase ph;
        {
            Span s("op.serve.phase");
            ph = st->live->drive(reqs, nextId, load);
        }
        nextId += reqs.size();
        r.attempted += ph.sent;
        r.failed += ph.failed;
        for (const auto &p : ph.problems)
            r.fail(std::string(name) + ": " + p);
        verifySamples(ph, st->live->reference(), r, name);
        lag.insert(lag.end(), ph.lagUs.begin(), ph.lagUs.end());
        std::printf("  %-10s %6.0f/s offered, %7.1f/s achieved, latency "
                    "%s\n",
                    name, load.rate, ph.achievedQps,
                    describe(quantiles(ph.latencyUs), 1.0, "us").c_str());
        return ph;
    };

    // Phase A: the rate ladder. The reference rung runs in six windows,
    // one before each other rung and one after the last, so that its
    // samples span the phase: on the reference machine single threads
    // run at one of two speeds for seconds at a time, and the rung as
    // one window mostly met one of them (op_ms_p50 spread 5-14% over
    // ten runs, 4-7% as six windows). A traced run traces the set-ups
    // and every other reference window; the untraced ones give the
    // overhead baseline and the machine's drift falls on both alike.
    // Nothing else is traced.
    Tracer::instance().setEnabled(false);
    struct Rung
    {
        std::vector<double> latency, wire, lag;
        std::size_t windows = 0;
        double achieved = 0.0; ///< summed over windows
        bool onTime = true;
    };
    Rung rungs[std::size(kLadder)];
    ServerSeries served; // the server's series over the reference rung
    const auto window = [&](std::size_t i, double sec) {
        const bool reference = i == kReferenceRung;
        const bool traced =
            reference && cfg.trace && rungs[i].windows % 2 == 1;
        const double rate = kClosedLoopQps * kLadder[i];
        const ServerSeries before = ServerSeries::read();
        Tracer::instance().setEnabled(traced);
        const Phase ph = run({.rate = rate}, rate * sec,
                             reference ? "reference" : "ladder");
        Tracer::instance().setEnabled(false);
        Rung &g = rungs[i];
        g.windows++;
        g.onTime = g.onTime && ph.failed == 0 &&
                   ph.achievedQps >= 0.97 * rate;
        g.achieved += ph.achievedQps;
        g.latency.insert(g.latency.end(), ph.latencyUs.begin(),
                         ph.latencyUs.end());
        g.wire.insert(g.wire.end(), ph.wireUs.begin(), ph.wireUs.end());
        g.lag.insert(g.lag.end(), ph.lagUs.begin(), ph.lagUs.end());
        if (!reference)
            return;
        served.add(before, ServerSeries::read());
        // Window medians: one stalled window must not decide the
        // overhead estimate.
        if (cfg.trace)
            (traced ? r.tracedOpSec : r.untracedOpSec)
                .push_back(quantiles(ph.latencyUs).p50 * 1e-6);
    };
    const double referenceWindowSec =
        sz.referenceSec / double(std::size(kLadder));
    for (std::size_t i = 0; i < std::size(kLadder); ++i) {
        if (i == kReferenceRung)
            continue;
        window(kReferenceRung, referenceWindowSec);
        window(i, sz.rungSec);
    }
    window(kReferenceRung, referenceWindowSec);

    // serve_max_qps: the highest rung that meets the p99 limit with no
    // failure, no backlog and a punctual generator.
    double maxQps = 0.0;
    for (const Rung &g : rungs)
        if (g.onTime && quantiles(g.latency).tail <= kLatencyLimitUs &&
            quantiles(g.lag).tail <= kMaxLagUs)
            maxQps = g.achieved / double(g.windows);
    r.workload["serve_max_qps"] = {maxQps, "1/s"};
    const Rung &ref = rungs[kReferenceRung];
    const Quantiles lat = quantiles(ref.latency);
    for (double us : ref.latency)
        r.opSec.push_back(us * 1e-6);
    r.workload["serve_p50_us"] = {lat.p50, "us"};
    r.workload["serve_p99_us"] = {lat.tail, "us"};
    r.layer["serve.wire_us_p50"] = quantiles(ref.wire).p50;
    serverLayers(served, r);

    // Saturation: a deep closed loop keeps the server busy.
    const Phase sat = run({.depth = kSaturationDepth},
                          double(sz.saturationRequests), "saturation");
    r.workload["serve_saturation_qps"] = {sat.achievedQps, "1/s"};

    // Phase B: the reference rate while search jobs run back to back.
    const double refRate = kClosedLoopQps * kLadder[kReferenceRung];
    const Phase mixed = run({.rate = refRate, .jobs = &sz.job},
                            refRate * sz.mixedSec, "mixed");
    if (mixed.jobSec.empty())
        r.fail("mixed: no search job completed");
    const Quantiles job = quantiles(mixed.jobSec);
    r.workload["serve_mixed_p99_us"] = {quantiles(mixed.latencyUs).tail,
                                        "us"};
    r.workload["serve_job_s"] = {job.p50, "s"};

    r.layer["serve.job_gen_ms_p50"] =
        job.p50 * 1e3 / double(sz.job.generations);
    r.layer["serve.gen_lag_ms_p99"] = quantiles(lag).tail * 1e-3;
    // At the end of the run: earlier, how many batch shapes the
    // server's plan holds depends on timing (heap spread 10-19% over
    // ten runs after the light rungs); the saturation phase meets most
    // shapes.
    r.opHeapMb.push_back(liveHeapMb());
    return r;
}

double
calibrateServe(const RunConfig &cfg)
{
    const ServeSizes sz = serveSizes(cfg);
    const auto st = setUpServe(cfg, sz);
    FreshArchs fresh(subSeed(cfg.seed, 7));
    fresh.exclude(st->hot);
    Mix mix(subSeed(cfg.seed, 5), fresh, st->hot);
    const auto reqs =
        mix.take(std::size_t(cfg.seconds * kClosedLoopQps), 0);
    const Phase ph = st->live->drive(reqs, 0, {.depth = 1});
    HWPR_CHECK(ph.failed == 0 && ph.problems.empty(),
               "calibration run failed");
    return ph.achievedQps;
}

} // namespace hwpr::e2e
