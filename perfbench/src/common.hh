/**
 * @file
 * Shared plumbing of the benchmark binary: run options, the metric
 * list a workload returns, clocks, percentiles, and process memory.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Sweep workers and service client connections of every run. One: on a
 * shared host every extra thread competes with the neighbours for
 * cores, and the run-to-run spread grows with it (paper_sweep: about 3%
 * at one worker, 12% at four; service_mixed: 3% at one client, 8% at
 * two).
 */
constexpr unsigned kWorkers = 1;

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    std::string referenceDir; ///< Digest references (read).
    std::string workDir;      ///< Scratch space (temp stores, traces).
    std::string stampJson;    ///< Host/build stamp, recorded in traces.
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run returns to main(). */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> report;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Median of the samples (0 when empty). */
double median(std::vector<double> v);

/**
 * The highest percentile that still has at least `beyond` samples
 * above it: its value, the percentile in [0,100] and the sample count
 * (value and percentile 0 when there are too few samples).
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    size_t samples = 0;
};
Tail tailOf(std::vector<double> v, size_t beyond = 10);

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

/** FNV-1a 64-bit. */
uint64_t fnv1a(const void *data, size_t n, uint64_t h = 1469598103934665603ull);

/** Deterministic 64-bit generator (splitmix64) for seeded inputs. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t s_;
};

/** Fisher-Yates shuffle driven by rng. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
