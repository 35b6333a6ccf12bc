/**
 * @file
 * The four workloads of the end-to-end benchmark. Each one builds its
 * inputs from the run seed, sets up several times (set-up time is its
 * own metric), then repeats its operation until the measuring time is
 * used up, checking every output. See README.md for what each
 * workload stresses and why it was chosen.
 */

#ifndef HWPR_BENCH_E2E_WORKLOADS_H
#define HWPR_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>

#include "core/surrogate.h"
#include "harness.h"
#include "nasbench/dataset.h"

namespace hwpr::e2e
{

struct RunConfig
{
    std::uint64_t seed = 1;
    /** Measuring time of the operation loop. */
    double seconds = 10.0;
    /** Traced run: spans + metrics registry on alternate operations. */
    bool trace = false;
    /** Tiny sizes for the smoke test. */
    bool smoke = false;
    /** Checkpoints, job directories and traces go here. */
    std::string outDir;
    /** Shared pool size for the offline workloads. */
    std::size_t threads = 4;
};

/**
 * One set-up: run @p make under a root span named @p root (traced in
 * a traced run) and append its wall-clock to r.setupSec. setup_s
 * reports the median of all set-ups. The state is returned after the
 * clock stops, so its tear-down never counts as set-up.
 */
template <class Make>
auto
timedSetUp(RunResult &r, const RunConfig &cfg, const char *root, Make make)
{
    Tracer::instance().setEnabled(cfg.trace);
    const double t0 = nowSec();
    decltype(make()) state;
    {
        Span s(root, r.setupSec.size());
        state = make();
    }
    r.setupSec.push_back(nowSec() - t0);
    Tracer::instance().setEnabled(false);
    return state;
}

/**
 * Set up from scratch at least three times, and again while the
 * set-ups so far took less than @p budget seconds (at most twelve
 * times); the last state is kept. @p make must build the same state
 * every time: the number of set-ups depends on the machine's speed.
 * The smoke test sets up once.
 */
template <class State, class Make>
std::unique_ptr<State>
setUp(RunResult &r, const RunConfig &cfg, const char *root, Make make,
      double budget = 2.0)
{
    std::unique_ptr<State> state;
    const std::size_t least = cfg.smoke ? 1 : 3;
    const std::size_t most = cfg.smoke ? 1 : 12;
    double spent = 0.0;
    for (std::size_t i = 0; i < most && (i < least || spent < budget); ++i) {
        state.reset();
        state = timedSetUp(r, cfg, root, make);
        spent += r.setupSec.back();
    }
    return state;
}

/** Label @p total union architectures (CIFAR-10) on @p oracle, split
 *  70/20/10 into train/validation/test. */
nasbench::SampledDataset label(const nasbench::Oracle &oracle,
                               std::size_t total, std::uint64_t seed);

/** Train and validation records of @p data for the EdgeGPU target. */
core::SurrogateDataset surrogateData(const nasbench::SampledDataset &data);

/**
 * Fit one family by its familyLabel() ("hwprnas", "scalable",
 * "brpnas", "gates", "lut", "dominance") for a fixed number of epochs
 * (no early stop, so every fit does equal work). Default shapes,
 * except the dominance classifier: bench_dominance's small trunk, as
 * its default shape fits in minutes (README.md).
 */
std::unique_ptr<core::Surrogate>
fitFamily(const std::string &family, const core::SurrogateDataset &ds,
          std::size_t epochs, std::uint64_t seed);

/** Checkpoint round trip; a failure is fatal. */
void saveChecked(const core::Surrogate &m, const std::string &path);
std::unique_ptr<core::Surrogate> loadChecked(const std::string &path);

RunResult runPipeline(const RunConfig &cfg);
RunResult runSearch(const RunConfig &cfg);
RunResult runScreen(const RunConfig &cfg);
RunResult runServe(const RunConfig &cfg);

/** Closed-loop rate C of the serve mix (requests/s, one request in
 *  flight per connection), used once to fix the serve rate ladder. */
double calibrateServe(const RunConfig &cfg);

} // namespace hwpr::e2e

#endif // HWPR_BENCH_E2E_WORKLOADS_H
