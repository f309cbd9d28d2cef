/**
 * @file
 * service_mixed: the nbl-labd stack in-process (Lab + CacheStore in a
 * scratch directory + LabService + SocketServer on a unix socket),
 * driven over the socket by a closed loop of client connections.
 *
 * Each repetition starts a fresh daemon, sends it the Figure 13 table
 * as its first request (the cold start), then replays the seeded
 * request stream over one connection: the client sends its next
 * request only after the previous reply arrived. Memo hits, fresh
 * computations (1..5-lane batches, and per-point replays for
 * dual-issue points), pings and stats requests are interleaved. A
 * restart phase then re-asks a sample of the computed points from a
 * fresh daemon over the same store, which must answer them from disk.
 *
 * One client only: with more, compute threads share the cores with
 * hit-serving threads and in-flight dedup comes into play, but the
 * run-to-run spread more than doubles on a shared host.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "harness/stats_export.hh"
#include "service/framing.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "stats/json.hh"
#include "stats/run_stats.hh"
#include "util/log.hh"
#include "workload.hh"

namespace fs = std::filesystem;

namespace perfbench
{

int
connectUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
roundTrip(int fd, const std::string &request, std::string *response)
{
    if (!nbl::service::writeFrame(fd, request))
        return false;
    std::string err;
    return nbl::service::readFrame(fd, response, &err) ==
           nbl::service::ReadStatus::Ok;
}

std::string
runRequestJson(const std::vector<SweepPoint> &points, uint64_t id)
{
    std::string out = nbl::strfmt(
        "{\"v\": 1, \"id\": %llu, \"kind\": \"run\", \"points\": [",
        (unsigned long long)id);
    for (size_t i = 0; i < points.size(); ++i) {
        out += i ? ", " : "";
        out += "{\"workload\": " + nbl::stats::jsonQuote(points[i].workload) +
               ", \"config\": " + nbl::harness::configJson(points[i].cfg) +
               "}";
    }
    out += "]}";
    return out;
}

void
addServiceCounters(const nbl::service::LabService &svc, Tally &tally)
{
    nbl::service::LabService::Counters c = svc.counters();
    tally.memoryHits += c.memoryHits;
    tally.diskHits += c.diskHits;
    tally.inflightHits += c.inflightHits;
    tally.computed += c.computed;
    tally.servicePoints += c.points;
}

namespace
{

/** Computed points re-asked after the restart. */
constexpr size_t kRestartPoints = 40;
/** Computed snapshots re-simulated in a direct Lab (countersEqual):
 *  single-issue (lane path) and dual-issue (per-point exact path). */
constexpr size_t kResimSingle = 6;
constexpr size_t kResimDual = 2;

/** The daemon stack, torn down in reverse order (server first). */
struct Daemon
{
    Daemon(double scale, const std::string &dir)
        : lab(scale), store(dir + "/store"), svc(lab, store),
          server(svc, {dir + "/labd.sock", false, 0})
    {
    }

    nbl::harness::Lab lab;
    nbl::service::CacheStore store;
    nbl::service::LabService svc;
    nbl::service::SocketServer server;
};

/** One request as sent, with its reply. */
struct Exchange
{
    const ServiceRequest *req = nullptr;
    std::string reply;
    double latencyS = 0;
    bool transportOk = false;
};

/** A reply checked against its request. */
struct Checked
{
    bool ok = false;
    enum class Cls
    {
        Hit,   ///< Every point from the memo.
        Miss,  ///< At least one point computed.
        Disk,  ///< Every point from the on-disk store.
        Other, ///< Ping, stats, or a mix served without computing.
    } cls = Cls::Other;
    size_t points = 0;
    uint64_t computedInstructions = 0;
    std::vector<Snapshot> snaps;
    std::vector<std::string> origins;
};

Checked
checkExchange(const Exchange &ex, const Reference &ref,
              std::vector<std::string> &log)
{
    Checked c;
    if (!ex.transportOk) {
        log.push_back("# transport failure");
        return c;
    }
    std::optional<nbl::stats::Json> doc =
        nbl::stats::Json::tryParse(ex.reply);
    const nbl::stats::Json *ok = doc ? doc->find("ok") : nullptr;
    if (!ok || !ok->isBool() || !ok->boolean()) {
        log.push_back("# error reply: " + ex.reply.substr(0, 160));
        return c;
    }
    if (ex.req->kind != ServiceRequest::Kind::Run) {
        c.ok = true;
        return c;
    }
    const nbl::stats::Json *results = doc->find("results");
    if (!results || !results->isArray() ||
        results->array().size() != ex.req->points.size()) {
        log.push_back("# malformed run reply");
        return c;
    }
    size_t memory = 0, disk = 0, computed = 0;
    c.ok = true;
    for (size_t i = 0; i < ex.req->points.size(); ++i) {
        const nbl::stats::Json &r = results->array()[i];
        c.snaps.push_back(nbl::stats::snapshotFromJson(r.at("stats")));
        c.origins.push_back(r.at("cached").str());
        const std::string &origin = c.origins.back();
        memory += origin == "memory";
        disk += origin == "disk";
        if (origin == "computed") {
            ++computed;
            c.computedInstructions += instructionsOf(c.snaps.back());
        }
        if (!ref.matches("sim", ex.req->points[i],
                         countersDigest(c.snaps.back()))) {
            log.push_back("# DIGEST MISMATCH " +
                          pointLabel(ex.req->points[i]));
            c.ok = false;
        }
    }
    c.points = ex.req->points.size();
    if (computed)
        c.cls = Checked::Cls::Miss;
    else if (memory == c.points)
        c.cls = Checked::Cls::Hit;
    else if (disk == c.points)
        c.cls = Checked::Cls::Disk;
    return c;
}

/** The inputs of every repetition, derived from the seed once. */
struct Stream
{
    std::vector<ServiceRequest> cold; ///< The Figure 13 table.
    std::vector<ServiceRequest> requests;
    std::vector<ServiceRequest> restart;
    std::vector<std::string> coldJson, requestJson, restartJson;
};

std::string
requestJson(const ServiceRequest &req, uint64_t id)
{
    switch (req.kind) {
    case ServiceRequest::Kind::Ping:
        return nbl::strfmt("{\"v\": 1, \"id\": %llu, \"kind\": \"ping\"}",
                           (unsigned long long)id);
    case ServiceRequest::Kind::Stats:
        return nbl::strfmt("{\"v\": 1, \"id\": %llu, \"kind\": \"stats\"}",
                           (unsigned long long)id);
    case ServiceRequest::Kind::Run:
        break;
    }
    return runRequestJson(req.points, id);
}

Stream
makeStream(uint64_t seed)
{
    Stream s;
    s.cold.resize(1);
    for (const Fig13Cell &c : fig13Cells())
        s.cold[0].points.push_back(c.point);
    s.requests = serviceStream(seed);
    // The restart sample: the first new points of the stream, one per
    // request, so it spans workloads and latencies.
    std::map<std::string, bool> seen;
    for (const Fig13Cell &c : fig13Cells())
        seen[nbl::harness::experimentKey(c.point.workload, c.point.cfg)];
    for (const ServiceRequest &r : s.requests) {
        if (s.restart.size() == kRestartPoints)
            break;
        for (const SweepPoint &p : r.points) {
            if (seen.emplace(nbl::harness::experimentKey(p.workload, p.cfg),
                             true)
                    .second) {
                ServiceRequest one;
                one.points.push_back(p);
                s.restart.push_back(one);
                break;
            }
        }
    }
    s.coldJson.push_back(requestJson(s.cold[0], 0));
    for (size_t i = 0; i < s.requests.size(); ++i)
        s.requestJson.push_back(requestJson(s.requests[i], i + 1));
    for (size_t i = 0; i < s.restart.size(); ++i)
        s.restartJson.push_back(requestJson(s.restart[i], 100000 + i));
    return s;
}

/** Everything one repetition sent and received. */
struct RepRun
{
    double setupS = 0;
    double phaseS = 0;
    std::vector<Exchange> cold, phase, restart;
};

/** Send `reqs` over one connection in order (optionally traced). */
void
sendSerial(const std::string &sock, const std::vector<ServiceRequest> &reqs,
           const std::vector<std::string> &json, Tracer &tracer,
           std::vector<Exchange> &out)
{
    int fd = connectUnix(sock);
    for (size_t i = 0; i < reqs.size(); ++i) {
        Exchange ex;
        ex.req = &reqs[i];
        Clock::time_point t0 = Clock::now();
        {
            Tracer::Span s(tracer, "service.request", "nbl-labd round trip",
                           i);
            ex.transportOk = fd >= 0 && roundTrip(fd, json[i], &ex.reply);
        }
        ex.latencyS = secondsSince(t0);
        out.push_back(std::move(ex));
    }
    if (fd >= 0)
        ::close(fd);
}

RepRun
runRep(const Options &opt, const Stream &stream, Tracer &tracer, Tally &tally,
       const std::string &dir)
{
    RepRun rep;
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string err;
    {
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Daemon> d;
        {
            Tracer::Span s(tracer, "service.start", "SocketServer::start");
            d = std::make_unique<Daemon>(opt.scale, dir);
            if (!d->server.start(&err))
                nbl::fatal("service_mixed: %s", err.c_str());
        }
        sendSerial(d->server.unixPath(), stream.cold, stream.coldJson, tracer,
                   rep.cold);
        rep.setupS = secondsSince(t0);

        // Closed loop: the client sends the next request only after the
        // previous reply arrived.
        Clock::time_point t1 = Clock::now();
        sendSerial(d->server.unixPath(), stream.requests, stream.requestJson,
                   tracer, rep.phase);
        rep.phaseS = secondsSince(t1);
        addServiceCounters(d->svc, tally);
        addLabCounters(d->lab, tally);
    }

    // Restart: a fresh daemon over the same store.
    {
        std::unique_ptr<Daemon> d;
        {
            Tracer::Span s(tracer, "service.start", "SocketServer::start");
            d = std::make_unique<Daemon>(opt.scale, dir);
            if (!d->server.start(&err))
                nbl::fatal("service_mixed: restart: %s", err.c_str());
        }
        sendSerial(d->server.unixPath(), stream.restart, stream.restartJson,
                   tracer, rep.restart);
        addServiceCounters(d->svc, tally);
        addLabCounters(d->lab, tally);
    }
    fs::remove_all(dir);
    return rep;
}

/** Latency samples and counts of one repetition's checked replies. */
struct RepStats
{
    std::vector<double> all, hit, miss, disk;
    /** Per timed request: did it compute at least one point? */
    std::vector<bool> missAt;
    size_t points = 0;
    uint64_t computedInstructions = 0;
    uint64_t requests = 0, failed = 0;
    std::map<std::string, size_t> origins;
    double mcpiErr = -1;
    size_t mcpiCells = 0;
    /** Served single/dual-issue snapshots to re-simulate. */
    std::vector<std::pair<SweepPoint, Snapshot>> resim;
};

RepStats
checkRep(const RepRun &rep, const Reference &ref, Tally *partition,
         std::vector<std::string> &log)
{
    RepStats st;
    size_t singleResim = 0, dualResim = 0;
    auto take = [&](const std::vector<Exchange> &exs, bool timed) {
        for (const Exchange &ex : exs) {
            Checked c = checkExchange(ex, ref, log);
            // The restarted daemon has an empty memo: every point it
            // answers must come from the disk store.
            if (&exs == &rep.restart && c.ok &&
                c.cls != Checked::Cls::Disk) {
                log.push_back("# restart reply not from disk: " +
                              pointLabel(ex.req->points[0]));
                c.ok = false;
            }
            ++st.requests;
            st.failed += !c.ok;
            if (&exs == &rep.cold && c.ok)
                st.mcpiErr =
                    fig13Error(ex.req->points, c.snaps, &st.mcpiCells);
            for (size_t i = 0; i < c.origins.size(); ++i) {
                ++st.origins[c.origins[i]];
                if (!timed || c.origins[i] != "computed")
                    continue;
                if (partition)
                    addPartition(c.snaps[i], *partition);
                // Re-simulate a few computed points, dual-issue ones
                // (the per-point exact path) among them.
                bool dual = ex.req->points[i].cfg.issueWidth > 1;
                size_t &taken = dual ? dualResim : singleResim;
                if (taken < (dual ? kResimDual : kResimSingle)) {
                    ++taken;
                    st.resim.push_back({ex.req->points[i], c.snaps[i]});
                }
            }
            double ms = ex.latencyS * 1e3;
            if (c.cls == Checked::Cls::Disk)
                st.disk.push_back(ms);
            if (!timed)
                continue;
            st.missAt.push_back(c.cls == Checked::Cls::Miss);
            st.all.push_back(ms);
            st.points += c.points;
            st.computedInstructions += c.computedInstructions;
            if (c.cls == Checked::Cls::Hit)
                st.hit.push_back(ms);
            else if (c.cls == Checked::Cls::Miss)
                st.miss.push_back(ms);
        }
    };
    take(rep.cold, false);
    take(rep.phase, true);
    take(rep.restart, false);
    return st;
}

/**
 * Re-simulate served snapshots in a direct Lab and compare them with
 * countersEqual (cache layers must be invisible in the counters).
 * Returns the number of mismatches.
 */
uint64_t
resimulate(const Options &opt,
           const std::vector<std::pair<SweepPoint, Snapshot>> &served,
           Tracer &tracer, Tally &tally, std::vector<std::string> &log)
{
    std::vector<SweepPoint> lanePoints, exactPoints;
    std::vector<Snapshot> laneServed, exactServed;
    for (const auto &[p, snap] : served) {
        bool lanes = p.cfg.issueWidth == 1;
        (lanes ? lanePoints : exactPoints).push_back(p);
        (lanes ? laneServed : exactServed).push_back(snap);
    }
    Lab lab(opt.scale);
    std::vector<SweepPoint> all = lanePoints;
    all.insert(all.end(), exactPoints.begin(), exactPoints.end());
    setupLab(lab, all, tracer, tally);
    std::vector<ExperimentResult> results =
        tracer.on()
            ? tracedLanePass(lab, lanePoints, tracer, tally)
            : nbl::harness::runPointsParallel(lab, lanePoints, kWorkers);
    for (size_t i = 0; i < exactPoints.size(); ++i) {
        Tracer::Span s(tracer, "exec.exact", "Lab::run", i);
        results.push_back(lab.run(exactPoints[i].workload, exactPoints[i].cfg));
    }
    std::vector<Snapshot> local = exportStats(results, tracer, tally);
    laneServed.insert(laneServed.end(), exactServed.begin(),
                      exactServed.end());
    uint64_t bad = 0;
    for (size_t i = 0; i < local.size(); ++i) {
        if (!local[i].countersEqual(laneServed[i])) {
            ++bad;
            log.push_back("# SERVED != DIRECT " + pointLabel(all[i]));
        }
    }
    addLabCounters(lab, tally);
    return bad;
}

std::string
repDir(const Options &opt, size_t rep)
{
    return nbl::strfmt("%s/svc-%d-%zu", opt.workDir.c_str(), int(::getpid()),
                       rep);
}

Outcome
runTimed(const Options &opt, const Reference &ref)
{
    Outcome out;
    Stream stream = makeStream(opt.seed);
    Tracer off;
    Tally tally;
    std::vector<double> setups, phases;
    std::vector<double> all, hit, miss, disk;
    std::map<std::string, size_t> origins;
    RepStats first;
    // Every repetition replays the same stream against a fresh daemon,
    // so request i does the same work in each. Throughput and latency
    // are taken from each request's fastest round trip over the
    // repetitions: interference from other tenants only ever slows a
    // request down, and it comes and goes within a repetition. Set-up
    // is the median over the repetitions.
    std::vector<double> fastest(stream.requests.size(),
                                std::numeric_limits<double>::infinity());
    // The high-water mark after the first repetition: later ones only
    // add what the allocator kept from earlier ones.
    double firstPeakMb = 0;
    Clock::time_point start = Clock::now();
    size_t reps = 0;
    while (reps < 3 || secondsSince(start) < opt.seconds) {
        RepRun rep = runRep(opt, stream, off, tally, repDir(opt, reps));
        RepStats st = checkRep(rep, ref, nullptr, out.report);
        setups.push_back(rep.setupS);
        phases.push_back(rep.phaseS);
        for (size_t i = 0; i < rep.phase.size(); ++i)
            fastest[i] = std::min(fastest[i], rep.phase[i].latencyS);
        all.insert(all.end(), st.all.begin(), st.all.end());
        hit.insert(hit.end(), st.hit.begin(), st.hit.end());
        miss.insert(miss.end(), st.miss.begin(), st.miss.end());
        disk.insert(disk.end(), st.disk.begin(), st.disk.end());
        for (const auto &[k, v] : st.origins)
            origins[k] += v;
        out.attempted += st.requests;
        out.failed += st.failed;
        if (reps++ == 0)
            first = std::move(st);
        if (firstPeakMb == 0)
            firstPeakMb = peakRssMb();
    }
    uint64_t mismatches = resimulate(opt, first.resim, off, tally, out.report);
    out.attempted += first.resim.size();
    out.failed += mismatches;

    // The phase as fast as each of its requests was answered, and the
    // median over the requests that computed at least one point.
    double phaseS = 0;
    std::vector<double> missMs;
    for (size_t i = 0; i < fastest.size(); ++i) {
        phaseS += fastest[i];
        if (first.missAt[i])
            missMs.push_back(fastest[i] * 1e3);
    }
    out.add("setup_s", median(setups), "s");
    out.add("points_per_s", double(first.points) / phaseS, "1/s");
    out.add("sim_minstr_per_s",
            double(first.computedInstructions) / 1e6 / phaseS, "Minstr/s");
    out.add("latency_p50_ms", median(missMs), "ms");
    out.add("peak_rss_mb", firstPeakMb, "MB");
    out.add("paper_mcpi_err", first.mcpiErr, "MCPI");

    auto tailLine = [](const char *name, const std::vector<double> &v) {
        Tail t = tailOf(v);
        return nbl::strfmt("%s_p50_ms %.4f  %s_tail_ms %.4f (p%.2f, 10 "
                           "samples beyond it, n=%zu)",
                           name, median(v), name, t.value, t.percentile,
                           t.samples);
    };
    out.report.push_back(nbl::strfmt(
        "# service_mixed: %zu repetitions x %zu requests, %u closed-loop "
        "client; phase from fastest round trips %.4f s (req_per_s %.1f); "
        "phase wall median %.4f s (min %.4f, max %.4f)",
        reps, stream.requests.size(), kWorkers, phaseS,
        double(stream.requests.size()) / phaseS, median(phases),
        *std::min_element(phases.begin(), phases.end()),
        *std::max_element(phases.begin(), phases.end())));
    out.report.push_back("# " + tailLine("all", all));
    out.report.push_back("# " + tailLine("hit", hit));
    out.report.push_back("# " + tailLine("miss", miss));
    out.report.push_back(nbl::strfmt("# disk_p50_ms %.4f (n=%zu)",
                                     median(disk), disk.size()));
    std::string o = "# origins:";
    for (const auto &[k, v] : origins)
        o += nbl::strfmt(" %s=%zu", k.c_str(), v);
    out.report.push_back(o);
    out.report.push_back(nbl::strfmt(
        "# re-simulated %zu served snapshots in a direct Lab: %llu "
        "mismatches; paper_mcpi_err over %zu Figure 13 cells",
        first.resim.size(), (unsigned long long)mismatches,
        first.mcpiCells));
    return out;
}

Outcome
runTraced(const Options &opt, const Reference &ref)
{
    Outcome out;
    Stream stream = makeStream(opt.seed);
    Tally tally;
    // A warm-up repetition, then the untraced base of the overhead.
    for (int r = 0; r < kUntracedReps; ++r) {
        Tracer off;
        Tally scratch;
        Clock::time_point t0 = Clock::now();
        runRep(opt, stream, off, scratch, repDir(opt, 0));
        noteUntraced(tally, r, secondsSince(t0));
    }
    Tracer tracer(true);
    {
        Tracer::Span root(tracer, "bench.run", "service_mixed");
        RepRun rep;
        {
            Tracer::Span w(tracer, "bench.workload", "service_mixed");
            rep = runRep(opt, stream, tracer, tally, repDir(opt, 1));
        }
        {
            Tracer::Span v(tracer, "bench.verify", "countersDigest");
            RepStats st = checkRep(rep, ref, &tally, out.report);
            out.attempted += st.requests + st.resim.size();
            out.failed += st.failed;
            out.failed += resimulate(opt, st.resim, tracer, tally, out.report);
        }
        {
            Tracer::Span p(tracer, "bench.probes", "runProbes");
            runProbes(opt, tracer, tally);
        }
    }
    finishTrace(opt, tracer, tally, out);
    return out;
}

} // namespace

Outcome
runServiceMixed(const Options &opt, const Reference &ref)
{
    return opt.trace ? runTraced(opt, ref) : runTimed(opt, ref);
}

} // namespace perfbench
