/**
 * @file
 * Per-layer probes of the traced run. Each calls one layer's public
 * entry points on a fixed sample of the workload's own points, so every
 * layer is measured on every workload -- including layers the workload
 * itself leaves idle:
 *
 *  - cache cost: replayExact with the real cache minus replayExact with
 *    a perfect cache, per memory reference (core.cache_ns_per_ref);
 *  - model and planner: characterize, predict, then planAndRun over
 *    the sample once its results are memoized (harness.plan);
 *  - service: parseRequest, an in-process LabService::handle memo hit,
 *    the same request over the socket, and CacheStore writes/reads.
 */

#include <filesystem>

#include <unistd.h>

#include "exec/event_trace.hh"
#include "harness/sweep_planner.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "util/log.hh"
#include "workload.hh"

namespace fs = std::filesystem;

namespace perfbench
{

namespace
{

constexpr int kCacheReps = 3;
constexpr int kServiceCalls = 50;

void
cacheProbe(Lab &lab, const std::vector<SweepPoint> &sample, Tracer &tracer,
           Tally &tally)
{
    double real = 0, perfect = 0;
    uint64_t refs = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
        const SweepPoint &p = sample[i];
        auto trace = lab.eventTrace(p.workload, p.cfg.loadLatency);
        const nbl::isa::Program &prog =
            lab.program(p.workload, p.cfg.loadLatency);
        nbl::exec::MachineConfig mc = nbl::harness::makeMachineConfig(p.cfg);
        nbl::exec::MachineConfig ideal = mc;
        ideal.perfectCache = true;
        for (int r = 0; r < kCacheReps; ++r) {
            Clock::time_point t0 = Clock::now();
            {
                Tracer::Span s(tracer, "exec.exact", "exec::replayExact", i);
                nbl::exec::replayExact(prog, *trace, mc);
            }
            Clock::time_point t1 = Clock::now();
            {
                Tracer::Span s(tracer, "exec.perfect", "exec::replayExact",
                               i);
                nbl::exec::replayExact(prog, *trace, ideal);
            }
            real += std::chrono::duration<double>(t1 - t0).count();
            perfect += secondsSince(t1);
            refs += trace->memoryRefs();
        }
    }
    tally.cacheNsPerRef = refs ? (real - perfect) * 1e9 / double(refs) : 0;
}

void
modelProbe(Lab &lab, const std::vector<SweepPoint> &sample, Tracer &tracer,
           Tally &tally)
{
    tracedModelPass(lab, sample, tracer);
    std::vector<ExperimentResult> results =
        tracedLanePass(lab, sample, tracer, tally);
    nbl::harness::PlanOptions opts;
    opts.prune = true;
    opts.jobs = kWorkers;
    nbl::harness::PlanOutcome outcome;
    {
        Tracer::Span s(tracer, "harness.plan", "harness::planAndRun");
        outcome = nbl::harness::planAndRun(lab, sample, opts);
    }
    tally.plannedDistinct += outcome.distinctPoints;
    tally.plannedSimulated += outcome.simulatedCount;
    exportStats(results, tracer, tally);
}

/** Median duration in microseconds of the spans named `name` from
 *  record index `from` on. */
double
medianUs(const Tracer &tracer, const char *name, size_t from)
{
    std::vector<double> d;
    for (size_t i = from; i < tracer.records().size(); ++i) {
        if (std::string(tracer.records()[i].name) == name)
            d.push_back(tracer.seconds(i) * 1e6);
    }
    return median(d);
}

void
serviceProbe(const Options &opt, const SweepPoint &point, Tracer &tracer,
             Tally &tally)
{
    std::string dir = nbl::strfmt("%s/probe-%d", opt.workDir.c_str(),
                                  int(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    size_t from = 0; ///< First span after the computing request.
    {
        Lab lab(opt.scale);
        nbl::service::CacheStore store(dir + "/store");
        nbl::service::LabService svc(lab, store);
        nbl::service::SocketServer server(svc, {dir + "/labd.sock", false, 0});
        std::string err;
        {
            Tracer::Span s(tracer, "service.start", "SocketServer::start");
            if (!server.start(&err))
                nbl::fatal("service probe: %s", err.c_str());
        }
        int fd = connectUnix(server.unixPath());
        if (fd < 0)
            nbl::fatal("service probe: cannot connect");
        std::string req = runRequestJson({point}, 1), reply;
        {
            // The first ask computes the point; every later one hits.
            Tracer::Span s(tracer, "service.request", "nbl-labd round trip");
            if (!roundTrip(fd, req, &reply))
                nbl::fatal("service probe: round trip failed");
        }
        from = tracer.records().size();
        for (int i = 0; i < kServiceCalls; ++i) {
            nbl::service::Request parsed;
            std::string code, msg;
            uint64_t id = 0;
            Tracer::Span s(tracer, "service.parse",
                           "service::parseRequest", uint64_t(i));
            if (!nbl::service::parseRequest(req, &parsed, &code, &msg, &id))
                nbl::fatal("service probe: %s", msg.c_str());
        }
        for (int i = 0; i < kServiceCalls; ++i) {
            bool shutdown = false;
            Tracer::Span s(tracer, "service.handle", "LabService::handle",
                           uint64_t(i));
            svc.handle(req, &shutdown);
        }
        for (int i = 0; i < kServiceCalls; ++i) {
            Tracer::Span s(tracer, "service.request", "nbl-labd round trip",
                           uint64_t(i));
            if (!roundTrip(fd, req, &reply))
                nbl::fatal("service probe: round trip failed");
        }
        ::close(fd);
        for (int i = 0; i < kServiceCalls; ++i) {
            Tracer::Span s(tracer, "service.store_write",
                           "CacheStore::storeResult", uint64_t(i));
            store.storeResult(nbl::strfmt("probe|%d", i), reply);
        }
        for (int i = 0; i < kServiceCalls; ++i) {
            Tracer::Span s(tracer, "service.store_read",
                           "CacheStore::loadResult", uint64_t(i));
            if (!store.loadResult(nbl::strfmt("probe|%d", i)))
                nbl::fatal("service probe: stored result not found");
        }
        addServiceCounters(svc, tally);
        addLabCounters(lab, tally);
    }
    fs::remove_all(dir);

    // The round trip of a memo hit, minus the in-process handle of the
    // same request, is the socket + framing share.
    tally.parseUs = medianUs(tracer, "service.parse", from);
    tally.handleHitUs = medianUs(tracer, "service.handle", from);
    tally.socketUs =
        medianUs(tracer, "service.request", from) - tally.handleHitUs;
    tally.storeWriteUs = medianUs(tracer, "service.store_write", from);
    tally.storeReadUs = medianUs(tracer, "service.store_read", from);
}

} // namespace

void
runProbes(const Options &opt, Tracer &tracer, Tally &tally)
{
    std::vector<SweepPoint> sample = probeSample(opt.workload);
    {
        Lab lab(opt.scale);
        setupLab(lab, sample, tracer, tally);
        cacheProbe(lab, sample, tracer, tally);
        modelProbe(lab, sample, tracer, tally);
        addLabCounters(lab, tally);
    }
    serviceProbe(opt, sample.front(), tracer, tally);
}

} // namespace perfbench
