#include "serve/jobs.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>

#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "pareto/pareto.h"
#include "search/domain.h"
#include "search/moea.h"
#include "serve/proto.h"

namespace hwpr::serve
{

namespace fs = std::filesystem;

namespace
{

bool
validJobId(const std::string &id)
{
    if (id.empty() || id.size() > 64)
        return false;
    for (const char c : id)
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '-' && c != '_')
            return false;
    return true;
}

search::SearchDomain
domainFor(const std::string &space)
{
    if (space == "nb201")
        return search::SearchDomain::single(nasbench::nasBench201());
    if (space == "fbnet")
        return search::SearchDomain::single(nasbench::fbnet());
    return search::SearchDomain::unionBenchmarks();
}

/** Whole-file write via tmp + rename, so a kill mid-write can never
 *  leave a truncated result.json behind. */
bool
atomicWriteFile(const std::string &path, const std::string &body)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        out << body;
        if (!out.flush())
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string
metaJson(const JobSpec &spec)
{
    std::string out = "{\"id\": " + jsonQuote(spec.id) +
                      ", \"population\": " +
                      std::to_string(spec.population) +
                      ", \"generations\": " +
                      std::to_string(spec.generations) +
                      ", \"seed\": " + std::to_string(spec.seed) +
                      ", \"space\": " + jsonQuote(spec.space) + "}";
    return out;
}

bool
parseMeta(const std::string &path, JobSpec &spec)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
        const json::Value v = json::parse(body);
        spec.id = v.stringOr("id", "");
        spec.population =
            std::size_t(v.numberOr("population", 32.0));
        spec.generations =
            std::size_t(v.numberOr("generations", 8.0));
        spec.seed = std::uint64_t(v.numberOr("seed", 1.0));
        spec.space = v.stringOr("space", "union");
    } catch (const std::exception &) {
        return false;
    }
    std::string err;
    return validateJobSpec(spec, err);
}

std::string
resultJson(const JobSpec &spec, const search::SearchResult &res,
           search::EvalKind kind)
{
    // Deterministic fields only — no wall-clock, no rusage — so an
    // interrupted-and-resumed job's result is byte-identical to an
    // uninterrupted one.
    std::string out =
        "{\"id\": " + jsonQuote(spec.id) +
        ", \"space\": " + jsonQuote(spec.space) +
        ", \"population\": " + std::to_string(spec.population) +
        ", \"generations\": " +
        std::to_string(res.stats.generations) +
        ", \"seed\": " + std::to_string(spec.seed) +
        ", \"evaluations\": " +
        std::to_string(res.stats.evaluations);
    double hv = 0.0;
    if (kind == search::EvalKind::ObjectiveVector &&
        !res.fitness.empty())
        hv = pareto::hypervolume(
            res.fitness, pareto::nadirReference(res.fitness, 0.1));
    out += ", \"hypervolume\": " + jsonNumber(hv);
    out += ", \"archs\": [";
    for (std::size_t i = 0; i < res.population.size(); ++i) {
        const auto &arch = res.population[i];
        if (i != 0)
            out += ", ";
        out += "{\"space\": ";
        out += jsonQuote(spaceName(arch.space));
        out += ", \"genome\": [";
        for (std::size_t g = 0; g < arch.genome.size(); ++g) {
            if (g != 0)
                out += ", ";
            out += std::to_string(arch.genome[g]);
        }
        out += "]}";
    }
    out += "], \"fitness\": [";
    for (std::size_t i = 0; i < res.fitness.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += "[";
        for (std::size_t c = 0; c < res.fitness[i].size(); ++c) {
            if (c != 0)
                out += ", ";
            out += jsonNumber(res.fitness[i][c]);
        }
        out += "]";
    }
    out += "]}";
    return out;
}

} // namespace

bool
validateJobSpec(const JobSpec &spec, std::string &err)
{
    if (!validJobId(spec.id)) {
        err = "invalid job id (1-64 chars of [A-Za-z0-9_-])";
        return false;
    }
    if (spec.population < 2 || spec.population > 1024) {
        err = "population must be in [2, 1024]";
        return false;
    }
    if (spec.generations < 1 || spec.generations > 100000) {
        err = "generations must be in [1, 100000]";
        return false;
    }
    if (spec.space != "nb201" && spec.space != "fbnet" &&
        spec.space != "union") {
        err = "space must be nb201 | fbnet | union";
        return false;
    }
    return true;
}

JobManager::JobManager(const core::Surrogate &model, std::string dir)
    : model_(model), dir_(std::move(dir))
{
}

JobManager::~JobManager() { stop(); }

std::string
JobManager::jobDir(const std::string &id) const
{
    return dir_ + "/" + id;
}

std::string
JobManager::resultPath(const std::string &id) const
{
    return jobDir(id) + "/result.json";
}

std::size_t
JobManager::recover()
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    std::vector<std::string> ids;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_directory())
            continue;
        ids.push_back(entry.path().filename().string());
    }
    std::sort(ids.begin(), ids.end());

    std::size_t queued = 0;
    std::lock_guard lock(mu_);
    for (const std::string &id : ids) {
        JobSpec spec;
        if (!parseMeta(jobDir(id) + "/meta.json", spec) ||
            spec.id != id)
            continue;
        JobStatus st;
        st.spec = spec;
        if (fs::exists(resultPath(id))) {
            st.state = "done";
            st.generationsDone = spec.generations;
        } else {
            st.state = "queued";
            queue_.push_back(id);
            ++queued;
        }
        jobs_[id] = std::move(st);
    }
    return queued;
}

bool
JobManager::submit(const JobSpec &spec, std::string &err)
{
    if (!validateJobSpec(spec, err))
        return false;
    std::lock_guard lock(mu_);
    if (jobs_.count(spec.id) != 0) {
        err = "job id already exists";
        return false;
    }
    std::error_code ec;
    fs::create_directories(jobDir(spec.id), ec);
    if (!atomicWriteFile(jobDir(spec.id) + "/meta.json",
                         metaJson(spec))) {
        err = "cannot write job metadata";
        return false;
    }
    JobStatus st;
    st.spec = spec;
    jobs_[spec.id] = std::move(st);
    queue_.push_back(spec.id);
    cv_.notify_all();
    return true;
}

bool
JobManager::status(const std::string &id, JobStatus &out) const
{
    std::lock_guard lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    out = it->second;
    return true;
}

std::vector<JobStatus>
JobManager::list() const
{
    std::lock_guard lock(mu_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto &[id, st] : jobs_)
        out.push_back(st);
    return out;
}

std::size_t
JobManager::pending() const
{
    std::lock_guard lock(mu_);
    std::size_t n = queue_.size();
    for (const auto &[id, st] : jobs_)
        if (st.state == "running")
            ++n;
    return n;
}

void
JobManager::start()
{
    std::lock_guard lock(mu_);
    if (started_)
        return;
    started_ = true;
    stopRequested_.store(false);
    worker_ = std::thread([this] { workerLoop(); });
}

void
JobManager::stop()
{
    {
        std::lock_guard lock(mu_);
        if (!started_)
            return;
        stopRequested_.store(true);
        cv_.notify_all();
    }
    worker_.join();
    std::lock_guard lock(mu_);
    started_ = false;
}

void
JobManager::workerLoop()
{
    while (true) {
        std::string id;
        JobSpec spec;
        {
            std::unique_lock lock(mu_);
            cv_.wait(lock, [this] {
                return stopRequested_.load() || !queue_.empty();
            });
            if (stopRequested_.load())
                return; // queued jobs stay on disk for the next run
            id = queue_.front();
            queue_.pop_front();
            jobs_[id].state = "running";
            spec = jobs_[id].spec;
        }
        bool completed = false;
        std::string error;
        try {
            completed = runJob(spec);
        } catch (const std::exception &e) {
            error = e.what();
        }
        {
            std::lock_guard lock(mu_);
            JobStatus &st = jobs_[id];
            if (!error.empty()) {
                st.state = "failed";
                st.error = error;
            } else {
                st.state = completed ? "done" : "paused";
            }
        }
    }
}

bool
JobManager::runJob(const JobSpec &spec)
{
    const std::string dir = jobDir(spec.id);
    const search::SearchDomain domain = domainFor(spec.space);
    core::SurrogateEvaluator eval(model_);
    Rng rng(spec.seed);

    search::MoeaConfig mc;
    mc.populationSize = spec.population;

    // One-generation slices through the checkpoint machinery: each
    // run() resumes bit-identically from the previous slice's on-disk
    // state, so a stop between slices (graceful drain) or a kill
    // inside one (power loss) both replay to the same final result.
    search::MoeaCheckpoint ck;
    bool have =
        search::loadMoeaCheckpoint(dir + "/moea.ckpt", ck);
    std::size_t done = have ? ck.stats.generations : 0;
    search::SearchResult res;
    while (true) {
        mc.maxGenerations =
            std::min(spec.generations, done + 1);
        search::CheckpointOptions co;
        co.dir = dir;
        co.resume = have ? &ck : nullptr;
        res = search::Moea(mc).run(domain, eval, rng, co);
        done = res.stats.generations;
        have = search::loadMoeaCheckpoint(dir + "/moea.ckpt", ck);
        {
            std::lock_guard lock(mu_);
            jobs_[spec.id].generationsDone = done;
        }
        if (done >= spec.generations)
            break;
        if (stopRequested_.load())
            return false; // paused; checkpoint already on disk
    }
    if (!atomicWriteFile(resultPath(spec.id),
                         resultJson(spec, res, eval.kind())))
        throw std::runtime_error("cannot write job result");
    return true;
}

} // namespace hwpr::serve
