/**
 * @file
 * paper_sweep and org_sweep: a fresh Lab per repetition, set up
 * (build + compile + record), then the sweep calls, each followed by
 * the stats export of its points.
 *
 * paper_sweep is the work every figure does: the lane pass over 7-lane
 * batches, from cache-resident (xlisp) to streaming (tomcatv) working
 * sets; it never touches the model or the service. org_sweep sends the
 * dense fig21-shaped doduc grid through the pruning planner, so batched
 * characterization and prediction are about half its work, and its
 * simulated quarter runs as wide batches over geometries paper_sweep
 * never visits.
 */

#include <algorithm>
#include <limits>
#include <map>

#include "harness/sweep_planner.hh"
#include "model/predict.hh"
#include "util/log.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

struct SweepKind
{
    const char *name;
    const char *section; ///< Digest reference section.
    bool planned;        ///< Through planAndRun with pruning.
};

const SweepKind kPaper{"paper_sweep", "sim", false};
const SweepKind kOrg{"org_sweep", "planned", true};

/**
 * The sweep calls of one repetition, as indices into the points.
 * paper_sweep answers one workload per runPointsParallel call (one row
 * of a figure), in the order the seed gave the workloads' first points;
 * org_sweep answers its whole grid in one planAndRun call, since the
 * planner's simulate budget is shared by the whole grid.
 */
std::vector<std::vector<size_t>>
sweepCalls(const SweepKind &kind, const std::vector<SweepPoint> &points)
{
    std::vector<std::vector<size_t>> calls;
    std::map<std::string, size_t> callOf;
    for (size_t i = 0; i < points.size(); ++i) {
        std::string key = kind.planned ? "" : points[i].workload;
        auto [it, fresh] = callOf.emplace(key, calls.size());
        if (fresh)
            calls.emplace_back();
        calls[it->second].push_back(i);
    }
    return calls;
}

/** One repetition's outputs. */
struct Rep
{
    double setupS = 0;
    std::vector<double> callS; ///< Wall of each sweep call + its export.
    std::vector<Snapshot> snaps;
    std::vector<bool> simulated;
};

/**
 * One repetition: a fresh Lab, set up, then each sweep call followed by
 * the stats export of its points. With the tracer on, every layer call
 * is made in turn under its span, and `simulatedSet` (from an earlier
 * plan of the same points) lets the planned sweep run its lane pass
 * under exec.lane before planAndRun finds those results memoized.
 */
Rep
runRep(const SweepKind &kind, const Options &opt,
       const std::vector<SweepPoint> &points,
       const std::vector<std::vector<size_t>> &calls, Tracer &tracer,
       Tally &tally, const std::vector<SweepPoint> &simulatedSet = {})
{
    Rep rep;
    Clock::time_point t0 = Clock::now();
    Lab lab(opt.scale);
    setupLab(lab, points, tracer, tally);
    rep.setupS = secondsSince(t0);

    rep.snaps.resize(points.size());
    rep.simulated.assign(points.size(), true);
    for (const std::vector<size_t> &call : calls) {
        std::vector<SweepPoint> sub;
        for (size_t i : call)
            sub.push_back(points[i]);
        Clock::time_point t1 = Clock::now();
        std::vector<ExperimentResult> results;
        if (kind.planned) {
            if (tracer.on()) {
                tracedModelPass(lab, sub, tracer);
                tracedLanePass(lab, simulatedSet, tracer, tally);
            }
            nbl::harness::PlanOptions opts;
            opts.prune = true;
            opts.jobs = kWorkers;
            nbl::harness::PlanOutcome outcome;
            {
                Tracer::Span s(tracer, "harness.plan", "harness::planAndRun");
                outcome = nbl::harness::planAndRun(lab, sub, opts);
            }
            results = outcome.results();
            for (size_t k = 0; k < call.size(); ++k)
                rep.simulated[call[k]] = outcome.points[k].simulated;
            tally.plannedDistinct += outcome.distinctPoints;
            tally.plannedSimulated += outcome.simulatedCount;
        } else if (tracer.on()) {
            results = tracedLanePass(lab, sub, tracer, tally);
        } else {
            results = nbl::harness::runPointsParallel(lab, sub, kWorkers);
        }
        std::vector<Snapshot> snaps = exportStats(results, tracer, tally);
        rep.callS.push_back(secondsSince(t1));
        for (size_t k = 0; k < call.size(); ++k)
            rep.snaps[call[k]] = std::move(snaps[k]);
    }
    addLabCounters(lab, tally);
    return rep;
}

/** Digest-check one repetition; returns the number of mismatches. */
uint64_t
checkRep(const SweepKind &kind, const std::vector<SweepPoint> &points,
         const Rep &rep, const Reference &ref, std::vector<std::string> &log)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!ref.matches(kind.section, points[i],
                         countersDigest(rep.snaps[i]))) {
            if (bad++ < 5)
                log.push_back("# DIGEST MISMATCH " + pointLabel(points[i]));
        }
    }
    return bad;
}

Outcome
runTimed(const SweepKind &kind, const Options &opt,
         const std::vector<SweepPoint> &points, const Reference &ref)
{
    Outcome out;
    std::vector<std::vector<size_t>> calls = sweepCalls(kind, points);
    Tracer off;
    Tally tally;
    std::vector<double> setups, walls;
    // Every repetition makes the same calls on the same points, so call
    // c does the same work in each. Throughput and latency are taken
    // from each call's fastest wall over the repetitions: interference
    // from other tenants only ever slows a call down, and it comes and
    // goes within a repetition. Set-up is the median.
    std::vector<double> fastest(calls.size(),
                                std::numeric_limits<double>::infinity());
    uint64_t simInstr = 0;
    double mcpiErr = 0;
    size_t cells = 0;
    // The high-water mark after the first repetition: later ones only
    // add what the allocator kept from earlier ones.
    double firstPeakMb = 0;
    Clock::time_point start = Clock::now();
    // Whole repetitions until the time is up, and at least three so
    // every median has a middle.
    while (setups.size() < 3 || secondsSince(start) < opt.seconds) {
        Rep rep = runRep(kind, opt, points, calls, off, tally);
        setups.push_back(rep.setupS);
        double wall = 0;
        for (size_t c = 0; c < calls.size(); ++c) {
            fastest[c] = std::min(fastest[c], rep.callS[c]);
            wall += rep.callS[c];
        }
        walls.push_back(wall);
        out.attempted += points.size();
        out.failed += checkRep(kind, points, rep, ref, out.report);
        simInstr = 0;
        for (size_t i = 0; i < points.size(); ++i) {
            if (rep.simulated[i])
                simInstr += instructionsOf(rep.snaps[i]);
        }
        mcpiErr = fig13Error(points, rep.snaps, &cells);
        if (firstPeakMb == 0)
            firstPeakMb = peakRssMb();
    }
    double sweepS = 0;
    for (double s : fastest)
        sweepS += s;
    out.add("setup_s", median(setups), "s");
    out.add("points_per_s", double(points.size()) / sweepS, "1/s");
    out.add("sim_minstr_per_s", double(simInstr) / 1e6 / sweepS, "Minstr/s");
    out.add("latency_p50_ms", median(fastest) * 1e3, "ms");
    out.add("peak_rss_mb", firstPeakMb, "MB");
    out.add("paper_mcpi_err", mcpiErr, "MCPI");

    out.report.push_back(nbl::strfmt(
        "# %s: %zu points in %zu sweep calls x %zu repetitions, %u "
        "worker; sweep from fastest calls %.4f s; sweep wall median %.4f "
        "s (min %.4f, max %.4f); setup median %.4f s (min %.4f, max %.4f)",
        kind.name, points.size(), calls.size(), walls.size(), kWorkers,
        sweepS, median(walls), *std::min_element(walls.begin(), walls.end()),
        *std::max_element(walls.begin(), walls.end()), median(setups),
        *std::min_element(setups.begin(), setups.end()),
        *std::max_element(setups.begin(), setups.end())));
    out.report.push_back(nbl::strfmt(
        "# paper_mcpi_err over %zu Figure 13 cells (a fit: the synthetic "
        "workloads were tuned toward Figure 13)",
        cells));
    if (kind.planned) {
        out.report.push_back(nbl::strfmt(
            "# planner: %llu of %llu distinct points simulated per "
            "repetition",
            (unsigned long long)(tally.plannedSimulated / walls.size()),
            (unsigned long long)(tally.plannedDistinct / walls.size())));
    }
    return out;
}

Outcome
runTraced(const SweepKind &kind, const Options &opt,
          const std::vector<SweepPoint> &points, const Reference &ref)
{
    Outcome out;
    Tally tally;
    std::vector<std::vector<size_t>> calls = sweepCalls(kind, points);
    // Untraced repetitions at the same worker count: a warm-up (the
    // first repetition of a process pays for page faults and heap
    // growth), then the faster of two is the base of the tracing
    // overhead. For the planned sweep they also give the set of points
    // the planner simulates, which the traced repetition then replays
    // under exec.lane.
    std::vector<SweepPoint> simulatedSet;
    for (int r = 0; r < kUntracedReps; ++r) {
        Tracer off;
        Tally scratch;
        Clock::time_point t0 = Clock::now();
        Rep plain = runRep(kind, opt, points, calls, off, scratch);
        noteUntraced(tally, r, secondsSince(t0));
        for (size_t i = 0; i < points.size() && r == 0; ++i) {
            if (kind.planned && plain.simulated[i])
                simulatedSet.push_back(points[i]);
        }
    }

    Tracer tracer(true);
    {
        Tracer::Span root(tracer, "bench.run", kind.name);
        Rep rep;
        {
            Tracer::Span w(tracer, "bench.workload", kind.name);
            rep = runRep(kind, opt, points, calls, tracer, tally,
                         simulatedSet);
        }
        {
            Tracer::Span v(tracer, "bench.verify", "countersDigest");
            out.attempted += points.size();
            out.failed += checkRep(kind, points, rep, ref, out.report);
            for (size_t i = 0; i < points.size(); ++i) {
                if (rep.simulated[i])
                    addPartition(rep.snaps[i], tally);
            }
        }
        {
            Tracer::Span p(tracer, "bench.probes", "runProbes");
            runProbes(opt, tracer, tally);
        }
    }
    finishTrace(opt, tracer, tally, out);
    return out;
}

Outcome
runSweep(const SweepKind &kind, const Options &opt,
         const std::vector<SweepPoint> &points, const Reference &ref)
{
    return opt.trace ? runTraced(kind, opt, points, ref)
                     : runTimed(kind, opt, points, ref);
}

} // namespace

void
tracedModelPass(Lab &lab, const std::vector<SweepPoint> &points,
                Tracer &tracer)
{
    std::map<std::pair<std::string, int>, std::vector<size_t>> groups;
    for (size_t i = 0; i < points.size(); ++i)
        groups[{points[i].workload, points[i].cfg.loadLatency}].push_back(
            i);
    for (const auto &[key, idx] : groups) {
        std::vector<nbl::model::ProfileConfig> cfgs;
        for (size_t i : idx)
            cfgs.push_back(nbl::harness::profileConfigFor(points[i].cfg));
        std::vector<std::shared_ptr<const nbl::model::TraceProfile>> profs;
        {
            Tracer::Span s(tracer, "model.characterize",
                           "Lab::profileBatch", uint64_t(key.second));
            profs = lab.profileBatch(key.first, key.second, cfgs);
        }
        Tracer::Span s(tracer, "model.predict", "model::predict",
                       uint64_t(key.second));
        for (size_t j = 0; j < idx.size(); ++j) {
            nbl::model::predict(
                *profs[j], nbl::harness::predictQueryFor(points[idx[j]].cfg));
        }
    }
}

Outcome
runPaperSweep(const Options &opt, const Reference &ref)
{
    return runSweep(kPaper, opt, paperSweepPoints(opt.seed), ref);
}

Outcome
runOrgSweep(const Options &opt, const Reference &ref)
{
    return runSweep(kOrg, opt, orgSweepPoints(opt.seed), ref);
}

void
buildReference(const Options &opt, Reference &ref)
{
    Tracer off;
    Tally tally;
    // Directly simulated points: paper_sweep's grid is a subset of the
    // service universe; both land in section "sim".
    std::vector<SweepPoint> sim = serviceUniverse();
    {
        Lab lab(opt.scale);
        std::vector<ExperimentResult> rs =
            nbl::harness::runPointsParallel(lab, sim, kWorkers);
        std::vector<Snapshot> snaps = exportStats(rs, off, tally);
        for (size_t i = 0; i < sim.size(); ++i)
            ref.put(kPaper.section, sim[i], countersDigest(snaps[i]));
    }
    std::vector<SweepPoint> org = orgSweepPoints(1);
    Rep rep = runRep(kOrg, opt, org, sweepCalls(kOrg, org), off, tally);
    for (size_t i = 0; i < org.size(); ++i)
        ref.put(kOrg.section, org[i], countersDigest(rep.snaps[i]));
}

} // namespace perfbench
