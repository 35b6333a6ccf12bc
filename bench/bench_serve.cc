/**
 * @file
 * In-process load generator for the hwpr-serve micro-batching daemon.
 *
 * Trains a small HW-PR-NAS surrogate (the families whose per-call
 * fixed cost — encoder setup, chunk dispatch, scratch — dominates
 * single-arch requests, i.e. the regime micro-batching exists for),
 * starts a Server on an ephemeral port, and drives it two ways:
 *
 *  - closed loop: C client threads, each firing R back-to-back
 *    requests of B archs and waiting for every answer; reports
 *    throughput and p50/p99 response latency.
 *  - open loop: paced senders offering a fixed aggregate QPS
 *    regardless of response times (no coordinated omission); reports
 *    achieved QPS and tail latency vs the offered rate.
 *
 * Each client renders one request body up front and resends it, so
 * all of a client's requests carry the same architectures. Every rank
 * request after a client's first therefore hits the rank cache (the
 * encoder is skipped, and the rank rows measure framing, queueing and
 * the heads), while every predict request runs the full fp64 pass.
 *
 * Every closed-loop scenario runs twice: once against the batched
 * server (256-arch / 1 ms micro-batches with quiet-poll natural
 * batching) and once against a request-at-a-time baseline
 * (batchMaxArchs=1, deadline 0). The summary reports the saturation
 * speedup — batched vs baseline archs/s on single-arch predict
 * requests at the highest client count. --min-speedup=X exits 1 below
 * X; CI passes --quick --min-speedup=1.2.
 *
 * --json[=FILE] writes BENCH_serve.json with the obs::runMetaJson
 * provenance block; --quick shrinks the grid for CI smoke jobs.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/obs.h"
#include "common/threadpool.h"
#include "core/hwprnas.h"
#include "nasbench/dataset.h"
#include "nasbench/space.h"
#include "serve/proto.h"
#include "serve/server.h"

using namespace hwpr;

namespace
{

double
nowUs()
{
    return obs::nowMicros();
}

nasbench::Architecture
sampleArch(int salt)
{
    const auto &space = nasbench::nasBench201();
    nasbench::Architecture arch;
    arch.space = nasbench::SpaceId::NasBench201;
    for (std::size_t pos = 0; pos < space.genomeLength(); ++pos)
        arch.genome.push_back(
            int((pos + std::size_t(salt)) % space.numOptions(pos)));
    return arch;
}

/** Pre-rendered request body for op "predict" or "rank". */
std::string
requestBody(const char *op, std::size_t batch, int salt)
{
    std::string out = "{\"op\": \"";
    out += op;
    out += "\", \"id\": 0, \"archs\": [";
    for (std::size_t i = 0; i < batch; ++i) {
        const auto arch = sampleArch(salt + int(i));
        if (i != 0)
            out += ", ";
        out += "{\"space\": \"nb201\", \"genome\": [";
        for (std::size_t g = 0; g < arch.genome.size(); ++g) {
            if (g != 0)
                out += ", ";
            out += std::to_string(arch.genome[g]);
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

/** Minimal blocking client for the length-prefixed protocol. */
class Client
{
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(std::uint16_t(port));
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ok_ = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)) == 0;
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    }
    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    bool ok() const { return ok_; }

    bool
    send(const std::string &payload)
    {
        const std::string frame = serve::encodeFrame(payload);
        std::size_t off = 0;
        while (off < frame.size()) {
            const ssize_t n = ::write(fd_, frame.data() + off,
                                      frame.size() - off);
            if (n <= 0)
                return false;
            off += std::size_t(n);
        }
        return true;
    }

    bool
    recv()
    {
        char header[4];
        if (!readExact(header, 4))
            return false;
        const auto *p =
            reinterpret_cast<const unsigned char *>(header);
        std::size_t len = (std::size_t(p[0]) << 24) |
                          (std::size_t(p[1]) << 16) |
                          (std::size_t(p[2]) << 8) | std::size_t(p[3]);
        std::vector<char> buf(len);
        return readExact(buf.data(), len);
    }

  private:
    bool
    readExact(char *dst, std::size_t n)
    {
        std::size_t got = 0;
        while (got < n) {
            const ssize_t r = ::read(fd_, dst + got, n - got);
            if (r <= 0)
                return false;
            got += std::size_t(r);
        }
        return true;
    }

    int fd_ = -1;
    bool ok_ = false;
};

double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = std::min(
        v.size() - 1, std::size_t(q * double(v.size())));
    return v[idx];
}

struct LoadResult
{
    std::size_t requests = 0;
    std::size_t archs = 0;
    double wallSec = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;

    double qps() const { return double(requests) / wallSec; }
    double archsPerSec() const { return double(archs) / wallSec; }
};

/** C clients x R requests of B archs, each waiting for its answer. */
LoadResult
closedLoop(int port, const char *op, std::size_t clients,
           std::size_t requests, std::size_t batch)
{
    std::vector<std::vector<double>> lat(clients);
    std::vector<std::thread> threads;
    const double t0 = nowUs();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Client client(port);
            if (!client.ok())
                return;
            const std::string body =
                requestBody(op, batch, int(c * 131));
            lat[c].reserve(requests);
            for (std::size_t r = 0; r < requests; ++r) {
                const double s = nowUs();
                if (!client.send(body) || !client.recv())
                    return;
                lat[c].push_back(nowUs() - s);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double t1 = nowUs();

    LoadResult res;
    std::vector<double> all;
    for (const auto &v : lat) {
        res.requests += v.size();
        all.insert(all.end(), v.begin(), v.end());
    }
    res.archs = res.requests * batch;
    res.wallSec = (t1 - t0) / 1e6;
    res.p50Us = percentile(all, 0.50);
    res.p99Us = percentile(all, 0.99);
    return res;
}

/**
 * Paced senders offering @p offeredQps in aggregate. Send times
 * follow the fixed schedule (not the responses), so queueing delay
 * shows up in the latency numbers instead of being absorbed by a
 * slowed-down sender.
 */
LoadResult
openLoop(int port, const char *op, std::size_t clients,
         double offeredQps, double seconds, std::size_t batch)
{
    const double perClientQps = offeredQps / double(clients);
    const double gapUs = 1e6 / perClientQps;
    const auto perClient =
        std::size_t(std::max(1.0, seconds * perClientQps));

    std::vector<std::vector<double>> lat(clients);
    std::vector<std::thread> threads;
    const double t0 = nowUs();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Client client(port);
            if (!client.ok())
                return;
            const std::string body =
                requestBody(op, batch, int(c * 977));
            lat[c].reserve(perClient);
            const double start = nowUs();
            for (std::size_t r = 0; r < perClient; ++r) {
                const double scheduled =
                    start + double(r) * gapUs;
                double now = nowUs();
                if (now < scheduled)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(
                            long(scheduled - now)));
                if (!client.send(body) || !client.recv())
                    return;
                // Latency vs the schedule, not vs the actual send.
                lat[c].push_back(nowUs() - scheduled);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double t1 = nowUs();

    LoadResult res;
    std::vector<double> all;
    for (const auto &v : lat) {
        res.requests += v.size();
        all.insert(all.end(), v.begin(), v.end());
    }
    res.archs = res.requests * batch;
    res.wallSec = (t1 - t0) / 1e6;
    res.p50Us = percentile(all, 0.50);
    res.p99Us = percentile(all, 0.99);
    return res;
}

/** Server on a thread; stops on destruction. */
class LiveServer
{
  public:
    LiveServer(const core::Surrogate &model,
               serve::ServerConfig cfg)
        : server_(model, std::move(cfg))
    {
        std::string err;
        if (!server_.start(err)) {
            std::cerr << "bench_serve: " << err << "\n";
            std::exit(1);
        }
        thread_ = std::thread([this] { server_.run(); });
    }
    ~LiveServer()
    {
        server_.requestStop();
        thread_.join();
    }
    int port() const { return server_.port(); }

  private:
    serve::Server server_;
    std::thread thread_;
};

std::string
scenarioJson(const char *mode, std::size_t clients,
             std::size_t batch, const LoadResult &r,
             double offeredQps = 0.0)
{
    std::ostringstream os;
    os << "    {\"mode\": \"" << mode << "\", \"clients\": "
       << clients << ", \"batch\": " << batch;
    if (offeredQps > 0.0)
        os << ", \"offered_qps\": " << offeredQps;
    os << ", \"requests\": " << r.requests << ", \"wall_s\": "
       << r.wallSec << ", \"qps\": " << r.qps()
       << ", \"archs_per_s\": " << r.archsPerSec()
       << ", \"p50_us\": " << r.p50Us << ", \"p99_us\": " << r.p99Us
       << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string jsonPath;
    double minSpeedup = 0.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--json")
            jsonPath = "BENCH_serve.json";
        else if (arg.rfind("--json=", 0) == 0)
            jsonPath = arg.substr(7);
        else if (arg.rfind("--min-speedup=", 0) == 0)
            minSpeedup = std::stod(arg.substr(14));
        else {
            std::cerr << "usage: bench_serve [--quick] "
                         "[--json[=FILE]] [--min-speedup=X]\n";
            return 1;
        }
    }

    // Small trained HW-PR-NAS: realistic per-call fixed cost
    // (encoder, chunk dispatch) against a cheap per-arch marginal
    // cost — the regime micro-batching is built for.
    std::cerr << "bench_serve: training surrogate...\n";
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    Rng sampleRng(88);
    const nasbench::SampledDataset data =
        nasbench::SampledDataset::sample(
            {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle,
            300, 200, 50, sampleRng);
    core::SurrogateDataset ds;
    ds.train = data.select(data.trainIdx);
    ds.val = data.select(data.valIdx);
    ds.platform = hw::PlatformId::EdgeGpu;

    core::HwPrNasConfig mc;
    mc.encoder.gcnHidden = 16;
    mc.encoder.lstmHidden = 16;
    mc.encoder.embedDim = 8;
    core::HwPrNas model(mc, nasbench::DatasetId::Cifar10, 1);
    core::TrainConfig fit;
    fit.epochs = 6;
    fit.combinerEpochs = 2;
    fit.learningRate = 2e-3;
    model.setFitConfig(fit);
    ExecContext ctx = ExecContext::global().withSeed(7);
    model.fit(ds, ctx);

    // Warm the rank path (fills the encoding cache) so both servers
    // measure steady-state serving.
    {
        std::vector<nasbench::Architecture> warm;
        for (int i = 0; i < 64; ++i)
            warm.push_back(sampleArch(i));
        core::BatchPlan plan;
        model.predictBatch(warm, plan);
        model.rankBatch(warm, plan);
    }

    serve::ServerConfig batched;
    batched.batchMaxArchs = 256;
    batched.batchDeadlineUs = 1000;
    serve::ServerConfig unbatched;
    unbatched.batchMaxArchs = 1; // request-at-a-time baseline
    unbatched.batchDeadlineUs = 0;

    const std::vector<std::size_t> clientGrid =
        quick ? std::vector<std::size_t>{4}
              : std::vector<std::size_t>{1, 4, 16};
    const std::vector<const char *> opGrid =
        quick ? std::vector<const char *>{"predict"}
              : std::vector<const char *>{"predict", "rank"};
    const std::size_t requests = quick ? 100 : 300;

    std::vector<std::string> rows;
    double satBatched = 0.0, satBaseline = 0.0;
    std::size_t satClients =
        *std::max_element(clientGrid.begin(), clientGrid.end());

    std::cout << "op       mode      clients      qps  archs/s   "
                 "p50_us   p99_us\n";
    const auto report = [&](const char *op, const char *mode,
                            std::size_t c, const LoadResult &r) {
        std::printf("%-8s %-9s %7zu %8.0f %8.0f %8.0f %8.0f\n", op,
                    mode, c, r.qps(), r.archsPerSec(), r.p50Us,
                    r.p99Us);
        std::fflush(stdout);
    };

    for (const char *op : opGrid) {
        for (const std::size_t clients : clientGrid) {
            LoadResult rb, ru;
            {
                LiveServer live(model, batched);
                rb = closedLoop(live.port(), op, clients, requests,
                                1);
            }
            {
                LiveServer live(model, unbatched);
                ru = closedLoop(live.port(), op, clients, requests,
                                1);
            }
            rows.push_back(scenarioJson(
                (std::string("closed_batched_") + op).c_str(),
                clients, 1, rb));
            rows.push_back(scenarioJson(
                (std::string("closed_unbatched_") + op).c_str(),
                clients, 1, ru));
            report(op, "batched", clients, rb);
            report(op, "baseline", clients, ru);
            if (clients == satClients &&
                std::string(op) == "predict") {
                satBatched = rb.archsPerSec();
                satBaseline = ru.archsPerSec();
            }
        }
    }

    // Open loop: tail latency vs offered rate against the batched
    // server.
    // Rates stay well under one core's capacity: past it, a 1-core
    // box measures kernel scheduling of the sender threads, not the
    // server (batching needs spare cycles to matter at all).
    const std::vector<double> offered =
        quick ? std::vector<double>{500.0}
              : std::vector<double>{500.0, 1000.0, 2000.0};
    const double seconds = quick ? 0.5 : 1.5;
    for (const double qps : offered) {
        LiveServer live(model, batched);
        const std::size_t clients = 2;
        const LoadResult r =
            openLoop(live.port(), "rank", clients, qps, seconds, 1);
        rows.push_back(
            scenarioJson("open_batched_rank", clients, 1, r, qps));
        std::printf("rank     open      %7zu %8.0f %8.0f %8.0f "
                    "%8.0f (offered %.0f)\n",
                    clients, r.qps(), r.archsPerSec(), r.p50Us,
                    r.p99Us, qps);
    }

    const double speedup =
        satBaseline > 0.0 ? satBatched / satBaseline : 0.0;
    // Single-arch predict amortizes the per-call fixed cost (encoder
    // setup, chunk dispatch) and the GEMM batching economies; on one
    // hardware thread that bounds the win near 2x, and the >= 3x
    // serving target additionally needs the batched call's chunk
    // fan-out across a multi-core pool (request-at-a-time calls are
    // single-chunk and cannot use it).
    std::printf("\nsaturation speedup (batched vs request-at-a-time, "
                "%zu clients, %u hw threads): %.2fx\n",
                satClients, std::thread::hardware_concurrency(),
                speedup);

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath, std::ios::trunc);
        out << "{\n  \"bench\": \"serve\",\n"
            << "  \"meta\": " << obs::runMetaJson("  ") << ",\n"
            << "  \"quick\": " << (quick ? "true" : "false")
            << ",\n  \"hardware_threads\": "
            << std::thread::hardware_concurrency()
            << ",\n  \"saturation_clients\": " << satClients
            << ",\n  \"saturation_speedup\": " << speedup
            << ",\n  \"scenarios\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i)
            out << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
        out << "  ],\n  \"metrics\": "
            << obs::Registry::global().snapshotJson("  ") << "\n}\n";
        if (!out.flush()) {
            std::cerr << "bench_serve: cannot write " << jsonPath
                      << "\n";
            return 1;
        }
        std::cout << "wrote " << jsonPath << "\n";
    }
    if (minSpeedup > 0.0 && speedup < minSpeedup) {
        std::cerr << "bench_serve: saturation speedup " << speedup
                  << "x below required " << minSpeedup << "x\n";
        return 1;
    }
    return 0;
}
