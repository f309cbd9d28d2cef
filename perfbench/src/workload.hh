/**
 * @file
 * The three workloads, the per-layer probes, and the layer plumbing
 * they share: lab set-up, the lane pass and the stats export, each
 * either fanned out over workers (timed runs) or called layer by layer
 * under spans (the traced run).
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <string>
#include <vector>

#include "common.hh"
#include "digest.hh"
#include "harness/experiment.hh"
#include "points.hh"
#include "tracer.hh"

namespace nbl::service
{
class LabService;
}

namespace perfbench
{

using nbl::harness::ExperimentResult;
using nbl::harness::Lab;
using nbl::stats::Snapshot;

/** Counts gathered beside the spans of one traced run. */
struct Tally
{
    uint64_t traces = 0;
    double traceBytes = 0;
    uint64_t recordedInstructions = 0;
    uint64_t laneBatches = 0;
    uint64_t lanes = 0;
    uint64_t laneRefLanes = 0; ///< Memory references x lanes replayed.
    uint64_t snapshots = 0; ///< Snapshotted and serialized points.
    uint64_t jsonBytes = 0;
    uint64_t plannedDistinct = 0;
    uint64_t plannedSimulated = 0;
    uint64_t profiles = 0;
    uint64_t resultHits = 0;
    uint64_t traceHits = 0;
    uint64_t memoryHits = 0;
    uint64_t diskHits = 0;
    uint64_t inflightHits = 0;
    uint64_t computed = 0;
    uint64_t servicePoints = 0;
    /** Stall partition of the workload's simulated points. */
    uint64_t instructions = 0;
    uint64_t depStall = 0;
    uint64_t structStall = 0;
    uint64_t blockStall = 0;
    uint64_t fetches = 0;
    /** Probe results (probes.cc). */
    double cacheNsPerRef = 0;
    double parseUs = 0;
    double handleHitUs = 0;
    double socketUs = 0;
    double storeReadUs = 0;
    double storeWriteUs = 0;
    /** Workload wall at one worker without and with tracing. */
    double untracedS = 0;
    double tracedS = 0;
};

/**
 * Close a traced run: take the traced workload wall from its
 * bench.workload span, add every per-layer metric to `out`, and write
 * the spans as Chrome trace-event JSON into the work directory.
 */
void finishTrace(const Options &opt, const Tracer &tracer, Tally &tally,
                 Outcome &out);

/** Untraced repetitions before a traced one: a warm-up, then two
 *  timed ones. */
constexpr int kUntracedReps = 3;

/** Record untraced repetition `rep` (0 = warm-up, ignored): the base
 *  of the tracing overhead is the fastest of the others. */
void noteUntraced(Tally &tally, int rep, double seconds);

/** Fold a Lab's cache counters (hits, profiles) into the tally. */
void addLabCounters(const Lab &lab, Tally &tally);

/** Fold one simulated point into the stall partition. */
void addPartition(const Snapshot &snap, Tally &tally);

/** Stall cycles per instruction of one snapshot (single issue). */
double mcpiOf(const Snapshot &snap);

/** Instructions of one snapshot. */
uint64_t instructionsOf(const Snapshot &snap);

/**
 * Build, compile and record every (workload, latency) the points need.
 * Untraced: one Lab::prewarmTrace per pair. Traced: one call per layer
 * under workloads.build / compiler.compile / exec.record spans.
 */
void setupLab(Lab &lab, const std::vector<SweepPoint> &points,
              Tracer &tracer, Tally &tally);

/**
 * The lane pass, traced: one Lab::runLanes call per (workload,
 * latency) batch -- the grouping runPointsParallel uses -- each under
 * an exec.lane span. Results in input order.
 */
std::vector<ExperimentResult>
tracedLanePass(Lab &lab, const std::vector<SweepPoint> &points,
               Tracer &tracer, Tally &tally);

/**
 * The planner's model work, traced: one batched characterization per
 * (workload, latency) under model.characterize, then one prediction per
 * point under model.predict. planAndRun repeats the predictions
 * internally, so its harness.plan self time includes them.
 */
void tracedModelPass(Lab &lab, const std::vector<SweepPoint> &points,
                     Tracer &tracer);

/** Snapshot every result and serialize it to JSON (the export step
 *  that ends every sweep); returns the snapshots. */
std::vector<Snapshot> exportStats(const std::vector<ExperimentResult> &rs,
                                  Tracer &tracer, Tally &tally);

/** Mean |simulated - published| MCPI over the Figure 13 cells that
 *  `points` covers (index-aligned with `snaps`); -1 when none. */
double fig13Error(const std::vector<SweepPoint> &points,
                  const std::vector<Snapshot> &snaps, size_t *cells);

/** Per-layer probes on a fixed sample of the workload's points. */
void runProbes(const Options &opt, Tracer &tracer, Tally &tally);

Outcome runPaperSweep(const Options &opt, const Reference &ref);
Outcome runOrgSweep(const Options &opt, const Reference &ref);
Outcome runServiceMixed(const Options &opt, const Reference &ref);

/** Compute every workload's reference digests at opt.scale. */
void buildReference(const Options &opt, Reference &ref);

/** Fold a daemon's per-origin point counters into the tally. */
void addServiceCounters(const nbl::service::LabService &svc, Tally &tally);

/** Service client helpers (unix socket + framing). */
int connectUnix(const std::string &path);
bool roundTrip(int fd, const std::string &request, std::string *response);
std::string runRequestJson(const std::vector<SweepPoint> &points,
                           uint64_t id);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
