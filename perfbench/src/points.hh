/**
 * @file
 * The benchmark's inputs: every point grid, the service universe and
 * the seeded request stream. They are defined here, not taken from the
 * figure code, so a figure edit cannot silently change a workload. The
 * seed is the only input-shaping argument.
 */

#ifndef PERFBENCH_POINTS_HH
#define PERFBENCH_POINTS_HH

#include <string>
#include <vector>

#include "harness/parallel.hh"

namespace perfbench
{

using nbl::harness::ExperimentConfig;
using nbl::harness::SweepPoint;

/** The 18 synthetic SPEC92 stand-ins, in the paper's Figure 13 order. */
const std::vector<std::string> &specNames();

/** The paper's six scheduled load latencies. */
const std::vector<int> &paperLatencies();

/**
 * paper_sweep: 18 workloads x the 7 baseline organizations (mc=0 +wma
 * ... no restrict) x 6 latencies = 756 single-issue points on the
 * paper's 8 KB direct-mapped cache. The seed only permutes the order.
 */
std::vector<SweepPoint> paperSweepPoints(uint64_t seed);

/**
 * org_sweep: doduc x (10 named organizations + 8 Figure-14 field
 * shapes) x {2,4,8,16} KB x {1,2,4}-way x 6 latencies = 1296 points.
 * The seed only permutes the order.
 */
std::vector<SweepPoint> orgSweepPoints(uint64_t seed);

/** One Figure 13 cell: the point and the published MCPI. */
struct Fig13Cell
{
    SweepPoint point;
    double published = 0.0;
};

/** The 108 Figure 13 cells (18 workloads x 6 organizations, L=10). */
std::vector<Fig13Cell> fig13Cells();

/** One client request of service_mixed. */
struct ServiceRequest
{
    enum class Kind
    {
        Run,
        Ping,
        Stats
    };
    Kind kind = Kind::Run;
    std::vector<SweepPoint> points;
};

/**
 * The service universe: 18 workloads x 10 named organizations x 6
 * latencies x {8, 64} KB direct-mapped single-issue points, plus the
 * dual-issue (issue_width 2) points at latency 10 on 8 KB.
 */
std::vector<SweepPoint> serviceUniverse();

/**
 * The seeded service_mixed request stream. Every workload asks for the
 * same new work: one request per latency carrying 1..5 points never
 * asked for before (widths and 8/64 KB sizes shuffled over the
 * latencies), plus one single dual-issue point. Those 126 requests
 * are shuffled and interleaved so that every 20 requests hold two
 * pings, two stats, six repeats of 1..5 points asked for earlier (or
 * by the Figure 13 cold start) and ten new ones. The seed changes
 * order and pairings, not the amount of work.
 */
std::vector<ServiceRequest> serviceStream(uint64_t seed);

/**
 * A fixed sample of a workload's points for the per-layer probes:
 * the cache-cost probe (replayExact with the real cache vs a perfect
 * cache), the model probe and the service probes.
 */
std::vector<SweepPoint> probeSample(const std::string &workload);

/** Short label of a point for reports ("doduc/mc=1/8K1w/L10/i1"). */
std::string pointLabel(const SweepPoint &p);

} // namespace perfbench

#endif // PERFBENCH_POINTS_HH
