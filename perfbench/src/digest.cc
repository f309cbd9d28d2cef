#include "digest.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common.hh"
#include "util/log.hh"

namespace perfbench
{

namespace
{

uint64_t
mixString(uint64_t h, const std::string &s)
{
    h = fnv1a(s.data(), s.size(), h);
    return fnv1a("\0", 1, h); // Separator: "ab"+"c" != "a"+"bc".
}

uint64_t
mixU64(uint64_t h, uint64_t v)
{
    return fnv1a(&v, sizeof v, h);
}

std::string
tablePath(const std::string &dir, double scale)
{
    return nbl::strfmt("%s/scale-%g.txt", dir.c_str(), scale);
}

} // namespace

uint64_t
countersDigest(const nbl::stats::Snapshot &snap)
{
    uint64_t h = fnv1a(nullptr, 0);
    for (const nbl::stats::Scalar &s : snap.scalars)
        h = mixU64(mixString(h, s.name), s.value);
    for (const nbl::stats::Histogram &hist : snap.histograms) {
        h = mixString(h, hist.name);
        for (const nbl::stats::Bucket &b : hist.buckets)
            h = mixU64(mixString(h, b.label), b.count);
    }
    return h;
}

uint64_t
Reference::keyOf(const std::string &section, const SweepPoint &p)
{
    return mixString(mixString(fnv1a(nullptr, 0), section),
                     nbl::harness::experimentKey(p.workload, p.cfg));
}

bool
Reference::load(const std::string &dir, double scale, std::string *err)
{
    std::string path = tablePath(dir, scale);
    std::ifstream in(path);
    if (!in) {
        *err = "no digest reference at " + path;
        return false;
    }
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        uint64_t k = 0, v = 0;
        if (std::sscanf(line.c_str(), "%16" SCNx64 " %16" SCNx64, &k,
                        &v) != 2) {
            *err = nbl::strfmt("%s:%zu: malformed line", path.c_str(),
                               lineNo);
            return false;
        }
        table_[k] = v;
    }
    return true;
}

bool
Reference::matches(const std::string &section, const SweepPoint &p,
                   uint64_t digest) const
{
    auto it = table_.find(keyOf(section, p));
    return it != table_.end() && it->second == digest;
}

void
Reference::put(const std::string &section, const SweepPoint &p,
               uint64_t digest)
{
    table_[keyOf(section, p)] = digest;
}

bool
Reference::save(const std::string &dir, double scale,
                std::string *err) const
{
    std::string path = tablePath(dir, scale);
    std::ofstream out(path);
    out << nbl::strfmt("# Counter digests at workload scale %g: "
                       "<fnv(section|experimentKey)> "
                       "<fnv(counters)>.\n# Regenerate with "
                       "`python3 perfbench/run.py --write-reference`.\n",
                       scale);
    for (const auto &[k, v] : table_)
        out << nbl::strfmt("%016" PRIx64 " %016" PRIx64 "\n", k, v);
    if (!out) {
        *err = "cannot write " + path;
        return false;
    }
    return true;
}

} // namespace perfbench
