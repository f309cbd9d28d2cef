/**
 * @file
 * Output correctness: a digest of every simulated counter of a point,
 * checked against the reference table kept in perfbench/reference/.
 *
 * The table holds one line per point, "<key> <digest>", both 16 hex
 * digits. The key hashes the section and the point's experiment key;
 * section "sim" holds directly simulated points (paper_sweep and the
 * service universe share them), "planned" holds org_sweep's outcome
 * under the pruning planner, whose model-served points carry
 * synthesized counters. One file per workload scale.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>

#include "points.hh"
#include "stats/registry.hh"

namespace perfbench
{

/** Digest of every scalar and histogram bucket (derived ratios and
 *  provenance metadata are left out: they are functions of the
 *  counters, or not counters at all). */
uint64_t countersDigest(const nbl::stats::Snapshot &snap);

class Reference
{
  public:
    /** Load `<dir>/scale-<scale>.txt`. False (with *err) when absent
     *  or malformed. */
    bool load(const std::string &dir, double scale, std::string *err);

    /** True when the point's digest matches the table. */
    bool matches(const std::string &section, const SweepPoint &p,
                 uint64_t digest) const;

    void put(const std::string &section, const SweepPoint &p,
             uint64_t digest);

    /** Write the table to `<dir>/scale-<scale>.txt`. */
    bool save(const std::string &dir, double scale,
              std::string *err) const;

    size_t size() const { return table_.size(); }

  private:
    static uint64_t keyOf(const std::string &section,
                          const SweepPoint &p);

    std::map<uint64_t, uint64_t> table_;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
