#include "points.hh"

#include "common.hh"
#include "harness/paper_data.hh"
#include "util/log.hh"

namespace perfbench
{

using nbl::core::ConfigName;

namespace
{

const std::vector<ConfigName> &
baselineOrgs()
{
    static const std::vector<ConfigName> orgs = {
        ConfigName::Mc0Wma, ConfigName::Mc0, ConfigName::Mc1,
        ConfigName::Mc2,    ConfigName::Fc1, ConfigName::Fc2,
        ConfigName::NoRestrict,
    };
    return orgs;
}

const std::vector<ConfigName> &
namedOrgs()
{
    static const std::vector<ConfigName> orgs = {
        ConfigName::Mc0Wma, ConfigName::Mc0,    ConfigName::Mc1,
        ConfigName::Mc2,    ConfigName::Fc1,    ConfigName::Fc2,
        ConfigName::Fs1,    ConfigName::Fs2,    ConfigName::InCache,
        ConfigName::NoRestrict,
    };
    return orgs;
}

/** Figure 13's organizations, in its column order. */
const std::vector<ConfigName> &
fig13Orgs()
{
    static const std::vector<ConfigName> orgs = {
        ConfigName::Mc0, ConfigName::Mc1, ConfigName::Mc2,
        ConfigName::Fc1, ConfigName::Fc2, ConfigName::NoRestrict,
    };
    return orgs;
}

/** The Figure-14 destination-field shapes (sub-blocks, misses each). */
const std::vector<std::pair<int, int>> &
fieldShapes()
{
    static const std::vector<std::pair<int, int>> shapes = {
        {1, 1}, {1, 2}, {1, 4}, {2, 1}, {4, 1}, {8, 1}, {2, 2}, {4, 4},
    };
    return shapes;
}

SweepPoint
makePoint(const std::string &wl, ConfigName org, int lat,
          uint64_t kb = 8, unsigned ways = 1, unsigned width = 1)
{
    ExperimentConfig cfg;
    cfg.config = org;
    cfg.loadLatency = lat;
    cfg.cacheBytes = kb * 1024;
    cfg.ways = ways;
    cfg.issueWidth = width;
    return {wl, cfg};
}

} // namespace

const std::vector<std::string> &
specNames()
{
    static const std::vector<std::string> names = {
        "alvinn",  "doduc",  "ear",     "fpppp",    "hydro2d", "mdljdp2",
        "mdljsp2", "nasa7",  "ora",     "su2cor",   "swm256",  "spice2g6",
        "tomcatv", "wave5",  "compress", "eqntott", "espresso", "xlisp",
    };
    return names;
}

const std::vector<int> &
paperLatencies()
{
    static const std::vector<int> lats = {1, 2, 3, 6, 10, 20};
    return lats;
}

std::vector<SweepPoint>
paperSweepPoints(uint64_t seed)
{
    std::vector<SweepPoint> points;
    for (const std::string &wl : specNames())
        for (ConfigName org : baselineOrgs())
            for (int lat : paperLatencies())
                points.push_back(makePoint(wl, org, lat));
    Rng rng(seed);
    shuffle(points, rng);
    return points;
}

std::vector<SweepPoint>
orgSweepPoints(uint64_t seed)
{
    std::vector<SweepPoint> points;
    for (uint64_t kb : {2u, 4u, 8u, 16u}) {
        for (unsigned ways : {1u, 2u, 4u}) {
            std::vector<ExperimentConfig> orgs;
            for (ConfigName org : namedOrgs())
                orgs.push_back(makePoint("doduc", org, 10, kb, ways).cfg);
            ExperimentConfig field =
                makePoint("doduc", ConfigName::NoRestrict, 10, kb, ways).cfg;
            for (auto [sub, per] : fieldShapes()) {
                field.customPolicy = nbl::core::makeFieldPolicy(sub, per);
                orgs.push_back(field);
            }
            for (ExperimentConfig cfg : orgs) {
                for (int lat : paperLatencies()) {
                    cfg.loadLatency = lat;
                    points.push_back({"doduc", cfg});
                }
            }
        }
    }
    Rng rng(seed);
    shuffle(points, rng);
    return points;
}

std::vector<Fig13Cell>
fig13Cells()
{
    std::vector<Fig13Cell> cells;
    for (const nbl::harness::paper::Fig13Row &row :
         nbl::harness::paper::fig13()) {
        const double published[] = {row.mc0, row.mc1, row.mc2,
                                    row.fc1, row.fc2, row.unrestricted};
        for (size_t c = 0; c < fig13Orgs().size(); ++c) {
            cells.push_back(
                {makePoint(row.name, fig13Orgs()[c], 10), published[c]});
        }
    }
    return cells;
}

std::vector<SweepPoint>
serviceUniverse()
{
    std::vector<SweepPoint> points;
    for (const std::string &wl : specNames()) {
        for (ConfigName org : namedOrgs()) {
            for (uint64_t kb : {8u, 64u})
                for (int lat : paperLatencies())
                    points.push_back(makePoint(wl, org, lat, kb));
            points.push_back(makePoint(wl, org, 10, 8, 1, 2));
        }
    }
    return points;
}

namespace
{

/**
 * Deals items in seed-shuffled rounds: every item once per round, so
 * the mix of request kinds and repeat widths is fixed and the seed
 * decides only their order.
 */
template <typename T>
class Deck
{
  public:
    Deck(std::vector<T> items, Rng &rng) : items_(std::move(items)), rng_(rng)
    {
    }

    const T &
    deal()
    {
        if (next_ == items_.size()) {
            shuffle(items_, rng_);
            next_ = 0;
        }
        return items_[next_++];
    }

  private:
    std::vector<T> items_;
    Rng &rng_;
    size_t next_ = items_.size();
};

} // namespace

std::vector<ServiceRequest>
serviceStream(uint64_t seed)
{
    Rng rng(seed ^ 0x5e41ce5eedull);
    std::vector<SweepPoint> drawn;
    for (const Fig13Cell &c : fig13Cells())
        drawn.push_back(c.point);

    // The new requests: per workload, one per latency, with widths
    // {1,2,3,3,4,5} shuffled over the six and sizes {8,8,8,64,64}
    // over the five latencies other than 10 (which always takes 64 KB,
    // since the cold start already asked for 8 KB at latency 10), plus
    // one single dual-issue point. Every workload therefore asks for
    // the same amount of new work whatever the seed.
    std::vector<ServiceRequest> fresh;
    for (const std::string &wl : specNames()) {
        std::vector<size_t> widths = {1, 2, 3, 3, 4, 5};
        std::vector<uint64_t> sizes = {8, 8, 8, 64, 64};
        shuffle(widths, rng);
        shuffle(sizes, rng);
        for (size_t i = 0, s = 0; i < paperLatencies().size(); ++i) {
            int lat = paperLatencies()[i];
            uint64_t kb = lat == 10 ? 64 : sizes[s++];
            std::vector<ConfigName> orgs = namedOrgs();
            shuffle(orgs, rng);
            ServiceRequest req;
            for (size_t k = 0; k < widths[i]; ++k)
                req.points.push_back(makePoint(wl, orgs[k], lat, kb));
            fresh.push_back(std::move(req));
        }
        ServiceRequest dual;
        dual.points.push_back(makePoint(
            wl, namedOrgs()[rng.below(namedOrgs().size())], 10, 8, 1, 2));
        fresh.push_back(std::move(dual));
    }
    shuffle(fresh, rng);

    // Interleave: per 20 requests two pings, two stats, six repeats of
    // 1..5 points already asked for, ten new. The run/ping/stats shares
    // (80/10/10) are bench_daemon's mixed load; the repeat/new split is
    // a choice, not a measurement.
    enum class Slot
    {
        Ping,
        Stats,
        Repeat,
        New
    };
    std::vector<Slot> block = {Slot::Ping, Slot::Ping, Slot::Stats,
                               Slot::Stats};
    block.insert(block.end(), 6, Slot::Repeat);
    block.insert(block.end(), 10, Slot::New);
    Deck<Slot> kinds(block, rng);
    Deck<size_t> widths({1, 2, 3, 4, 5}, rng);
    std::vector<ServiceRequest> out;
    size_t next = 0;
    while (next < fresh.size()) {
        ServiceRequest req;
        switch (kinds.deal()) {
        case Slot::Ping:
            req.kind = ServiceRequest::Kind::Ping;
            break;
        case Slot::Stats:
            req.kind = ServiceRequest::Kind::Stats;
            break;
        case Slot::Repeat:
            for (size_t i = widths.deal(); i > 0; --i)
                req.points.push_back(drawn[rng.below(drawn.size())]);
            break;
        case Slot::New:
            req = fresh[next++];
            drawn.insert(drawn.end(), req.points.begin(), req.points.end());
            break;
        }
        out.push_back(std::move(req));
    }
    return out;
}

std::vector<SweepPoint>
probeSample(const std::string &workload)
{
    if (workload == "org_sweep") {
        return {makePoint("doduc", ConfigName::Mc1, 10, 2, 1),
                makePoint("doduc", ConfigName::Fs2, 10, 8, 2),
                makePoint("doduc", ConfigName::NoRestrict, 10, 16, 4)};
    }
    // paper_sweep and service_mixed: a cache-resident, a mixed and a
    // streaming workload at the baseline geometry.
    return {makePoint("xlisp", ConfigName::Mc1, 10),
            makePoint("doduc", ConfigName::Fc2, 10),
            makePoint("tomcatv", ConfigName::NoRestrict, 10)};
}

std::string
pointLabel(const SweepPoint &p)
{
    const ExperimentConfig &c = p.cfg;
    std::string org = c.customPolicy ? c.customPolicy->label
                                     : nbl::core::configLabel(c.config);
    return nbl::strfmt("%s/%s/%lluK%uw/L%d/i%u", p.workload.c_str(),
                       org.c_str(),
                       (unsigned long long)(c.cacheBytes / 1024), c.ways,
                       c.loadLatency, c.issueWidth);
}

} // namespace perfbench
