#include "workload.hh"

#include <algorithm>
#include <map>
#include <set>

#include <sys/resource.h>
#include <unistd.h>

#include "harness/stats_export.hh"
#include "stats/run_stats.hh"
#include "util/log.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v, size_t beyond)
{
    Tail t;
    t.samples = v.size();
    if (v.size() <= beyond)
        return t;
    std::sort(v.begin(), v.end());
    size_t idx = v.size() - 1 - beyond; // `beyond` samples above it.
    t.value = v[idx];
    t.percentile = 100.0 * double(idx + 1) / double(v.size());
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB.
}

uint64_t
fnv1a(const void *data, size_t n, uint64_t h)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
instructionsOf(const Snapshot &snap)
{
    const nbl::stats::Scalar *s = snap.findScalar("cpu.instructions");
    return s ? s->value : 0;
}

double
mcpiOf(const Snapshot &snap)
{
    uint64_t instr = instructionsOf(snap);
    uint64_t stalls = 0;
    for (const char *name : {"cpu.dep_stall_cycles",
                             "cpu.struct_stall_cycles",
                             "cpu.block_stall_cycles",
                             "pred.stall_cycles"}) {
        if (const nbl::stats::Scalar *s = snap.findScalar(name))
            stalls += s->value;
    }
    return instr ? double(stalls) / double(instr) : 0.0;
}

void
addPartition(const Snapshot &snap, Tally &tally)
{
    auto get = [&](const char *name) -> uint64_t {
        const nbl::stats::Scalar *s = snap.findScalar(name);
        return s ? s->value : 0;
    };
    tally.instructions += get("cpu.instructions");
    tally.depStall += get("cpu.dep_stall_cycles");
    tally.structStall += get("cpu.struct_stall_cycles");
    tally.blockStall += get("cpu.block_stall_cycles");
    tally.fetches += get("cache.fetches");
}

void
noteUntraced(Tally &tally, int rep, double seconds)
{
    if (rep == 1 || (rep > 1 && seconds < tally.untracedS))
        tally.untracedS = seconds;
}

void
addLabCounters(const Lab &lab, Tally &tally)
{
    Lab::CacheCounters c = lab.cacheCounters();
    tally.resultHits += c.resultHits;
    tally.traceHits += c.traceHits;
    tally.profiles += c.profiles;
}

namespace
{

/** Distinct (workload, latency) pairs in first-seen order. */
std::vector<std::pair<std::string, int>>
schedulePairs(const std::vector<SweepPoint> &points)
{
    std::vector<std::pair<std::string, int>> pairs;
    std::set<std::pair<std::string, int>> seen;
    for (const SweepPoint &p : points) {
        auto key = std::make_pair(p.workload, p.cfg.loadLatency);
        if (seen.insert(key).second)
            pairs.push_back(key);
    }
    return pairs;
}

} // namespace

void
setupLab(Lab &lab, const std::vector<SweepPoint> &points, Tracer &tracer,
         Tally &tally)
{
    auto pairs = schedulePairs(points);
    if (!tracer.on()) {
        for (const auto &[wl, lat] : pairs)
            lab.prewarmTrace(wl, lat);
        return;
    }
    std::set<std::string> built;
    for (const auto &[wl, lat] : pairs) {
        if (built.insert(wl).second) {
            Tracer::Span s(tracer, "workloads.build", "Lab::workload");
            lab.workload(wl);
        }
    }
    for (const auto &[wl, lat] : pairs) {
        Tracer::Span s(tracer, "compiler.compile", "Lab::program",
                       uint64_t(lat));
        lab.program(wl, lat);
    }
    size_t before = lab.recordedTraces();
    for (const auto &[wl, lat] : pairs) {
        Tracer::Span s(tracer, "exec.record", "Lab::prewarmTrace",
                       uint64_t(lat));
        lab.prewarmTrace(wl, lat);
    }
    if (before == 0) {
        lab.forEachTrace([&](const std::string &, uint64_t,
                             const std::shared_ptr<
                                 const nbl::exec::EventTrace> &t) {
            ++tally.traces;
            tally.traceBytes += double(t->bytes());
            tally.recordedInstructions += t->instructions;
        });
    }
}

std::vector<ExperimentResult>
tracedLanePass(Lab &lab, const std::vector<SweepPoint> &points,
               Tracer &tracer, Tally &tally)
{
    std::map<std::pair<std::string, int>, std::vector<size_t>> batches;
    for (size_t i = 0; i < points.size(); ++i)
        batches[{points[i].workload, points[i].cfg.loadLatency}]
            .push_back(i);
    std::vector<ExperimentResult> results(points.size());
    uint64_t id = 0;
    for (const auto &[key, idx] : batches) {
        std::vector<nbl::harness::ExperimentConfig> cfgs;
        for (size_t i : idx)
            cfgs.push_back(points[i].cfg);
        std::vector<ExperimentResult> batch;
        {
            Tracer::Span s(tracer, "exec.lane", "Lab::runLanes", id++);
            batch = lab.runLanes(key.first, cfgs);
        }
        ++tally.laneBatches;
        tally.lanes += idx.size();
        for (size_t k = 0; k < idx.size(); ++k) {
            tally.laneRefLanes +=
                batch[k].run.cpu.loads + batch[k].run.cpu.stores;
            results[idx[k]] = std::move(batch[k]);
        }
    }
    return results;
}

std::vector<Snapshot>
exportStats(const std::vector<ExperimentResult> &rs, Tracer &tracer,
            Tally &tally)
{
    std::vector<Snapshot> snaps;
    snaps.reserve(rs.size());
    {
        Tracer::Span s(tracer, "stats.snapshot", "stats::snapshotOfRun");
        for (const ExperimentResult &r : rs)
            snaps.push_back(nbl::stats::snapshotOfRun(r.run));
    }
    size_t bytes = 0;
    {
        Tracer::Span s(tracer, "stats.json", "Snapshot::toJson");
        for (const Snapshot &snap : snaps)
            bytes += snap.toJson().size();
    }
    tally.snapshots += snaps.size();
    tally.jsonBytes += bytes;
    return snaps;
}

double
fig13Error(const std::vector<SweepPoint> &points,
           const std::vector<Snapshot> &snaps, size_t *cells)
{
    std::map<std::string, double> published;
    for (const Fig13Cell &c : fig13Cells())
        published[nbl::harness::experimentKey(c.point.workload,
                                              c.point.cfg)] = c.published;
    double sum = 0;
    size_t n = 0;
    std::set<std::string> seen;
    for (size_t i = 0; i < points.size(); ++i) {
        std::string key =
            nbl::harness::experimentKey(points[i].workload, points[i].cfg);
        auto it = published.find(key);
        if (it == published.end() || !seen.insert(key).second)
            continue;
        sum += std::abs(mcpiOf(snaps[i]) - it->second);
        ++n;
    }
    *cells = n;
    return n ? sum / double(n) : -1.0;
}

namespace
{

void
addLayerMetrics(const Tracer &tracer, const Tally &t, Outcome &out)
{
    std::map<std::string, double> self = tracer.selfByName();
    std::map<std::string, size_t> count = tracer.countByName();
    auto s = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto n = [&](const char *name) {
        auto it = count.find(name);
        return it == count.end() ? 0.0 : double(it->second);
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double instr = double(t.instructions);

    out.add("workloads.build_s", s("workloads.build"), "s");
    out.add("compiler.compile_s", s("compiler.compile"), "s");
    out.add("compiler.programs", n("compiler.compile"), "count");
    out.add("exec.record_s", s("exec.record"), "s");
    out.add("exec.record_ns_per_instr",
            ratio(s("exec.record") * 1e9, double(t.recordedInstructions)),
            "ns");
    out.add("exec.traces", double(t.traces), "count");
    out.add("exec.trace_mb", t.traceBytes / 1e6, "MB");
    out.add("exec.lane_s", s("exec.lane"), "s");
    out.add("exec.lane_batches", double(t.laneBatches), "count");
    out.add("exec.lanes_per_batch",
            ratio(double(t.lanes), double(t.laneBatches)), "lanes");
    out.add("exec.lane_ns_per_ref_lane",
            ratio(s("exec.lane") * 1e9, double(t.laneRefLanes)), "ns");
    out.add("exec.exact_s", s("exec.exact"), "s");
    out.add("exec.exact_points", n("exec.exact"), "count");
    out.add("core.cache_ns_per_ref", t.cacheNsPerRef, "ns");
    out.add("cpu.dep_stall_cpi", ratio(double(t.depStall), instr), "CPI");
    out.add("cpu.struct_stall_cpi", ratio(double(t.structStall), instr),
            "CPI");
    out.add("cpu.block_stall_cpi", ratio(double(t.blockStall), instr),
            "CPI");
    out.add("core.fetches_per_kinstr",
            ratio(double(t.fetches) * 1e3, instr), "1/kinstr");
    out.add("model.characterize_s", s("model.characterize"), "s");
    out.add("model.profiles", double(t.profiles), "count");
    out.add("model.predict_s", s("model.predict"), "s");
    out.add("model.simulated_frac",
            ratio(double(t.plannedSimulated), double(t.plannedDistinct)),
            "ratio");
    out.add("harness.plan_s", s("harness.plan"), "s");
    out.add("harness.result_hits", double(t.resultHits), "count");
    out.add("harness.trace_hits", double(t.traceHits), "count");
    out.add("stats.snapshot_us_per_point",
            ratio(s("stats.snapshot") * 1e6, double(t.snapshots)), "us");
    out.add("stats.json_us_per_point",
            ratio(s("stats.json") * 1e6, double(t.snapshots)), "us");
    out.add("stats.json_kb_per_point",
            ratio(double(t.jsonBytes) / 1e3, double(t.snapshots)), "KB");

    out.add("service.request_s", s("service.request"), "s");
    out.add("service.parse_us", t.parseUs, "us");
    out.add("service.handle_hit_us", t.handleHitUs, "us");
    out.add("service.socket_us", t.socketUs, "us");
    out.add("service.store_read_us", t.storeReadUs, "us");
    out.add("service.store_write_us", t.storeWriteUs, "us");
    out.add("service.memory_hits", double(t.memoryHits), "count");
    out.add("service.disk_hits", double(t.diskHits), "count");
    out.add("service.inflight_hits", double(t.inflightHits), "count");
    out.add("service.computed", double(t.computed), "count");
    out.add("service.hit_rate",
            ratio(double(t.memoryHits + t.diskHits + t.inflightHits),
                  double(t.servicePoints)),
            "ratio");

    // The traced wall is the root span; bench.* spans are the
    // benchmark's own code, reported as the unattributed remainder.
    double wall = tracer.records().empty() ? 0.0 : tracer.seconds(0);
    double unattributed = 0, attributed = 0;
    for (const auto &[name, v] : self) {
        if (name.rfind("bench.", 0) == 0)
            unattributed += v;
        else
            attributed += v;
    }
    out.add("trace.wall_s", wall, "s");
    out.add("trace.unattributed_s", unattributed, "s");
    out.add("trace.overhead_s", t.tracedS - t.untracedS, "s");
    out.add("trace.spans", double(tracer.records().size()), "count");

    out.report.push_back("# traced run: self time by span (one worker)");
    for (const auto &[name, v] : self) {
        out.report.push_back(nbl::strfmt("#   %-24s %10.6f s  %6zu spans",
                                         name.c_str(), v,
                                         count[name]));
    }
    out.report.push_back(nbl::strfmt(
        "# layers %.6f s + unattributed %.6f s = %.6f s; traced wall "
        "%.6f s (difference %.3g s)",
        attributed, unattributed, attributed + unattributed, wall,
        attributed + unattributed - wall));
    out.report.push_back(nbl::strfmt(
        "# workload wall at one worker: untraced %.6f s, traced %.6f s, "
        "tracing overhead %.6f s (%.2f%%)",
        t.untracedS, t.tracedS, t.tracedS - t.untracedS,
        ratio(100.0 * (t.tracedS - t.untracedS), t.untracedS)));
    out.report.push_back(nbl::strfmt(
        "# model.simulated_frac base: %llu simulated of %llu distinct "
        "planned points",
        (unsigned long long)t.plannedSimulated,
        (unsigned long long)t.plannedDistinct));
}

} // namespace

void
finishTrace(const Options &opt, const Tracer &tracer, Tally &tally,
            Outcome &out)
{
    for (size_t i = 0; i < tracer.records().size(); ++i) {
        if (std::string(tracer.records()[i].name) == "bench.workload")
            tally.tracedS = tracer.seconds(i);
    }
    addLayerMetrics(tracer, tally, out);
    std::string path =
        nbl::strfmt("%s/%s-seed%llu.trace.json", opt.workDir.c_str(),
                    opt.workload.c_str(), (unsigned long long)opt.seed);
    nbl::harness::writeFileOrDie(path, tracer.chromeJson(opt.stampJson));
    out.report.push_back("# trace written to " + path);
}

} // namespace perfbench
