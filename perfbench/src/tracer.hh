/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark opens a span around each call it makes into one of the
 * simulator's layers (a public function of workloads, compiler, exec,
 * core, model, harness, stats or service). Spans record name, start,
 * end, parent and a request/point id; they stay in memory and are
 * written once, at the end, as Chrome trace-event JSON. The traced run
 * is single-threaded on the recording side, so spans nest strictly and
 * a span's self time is its duration minus its children's durations.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

class Tracer
{
  public:
    struct Record
    {
        const char *name; ///< Layer key, e.g. "exec.lane".
        const char *call; ///< The wrapped call, e.g. "Lab::runLanes".
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1;
        uint64_t id = 0;
    };

    /** A disabled tracer records nothing (the untimed default). */
    explicit Tracer(bool on = false);

    bool on() const { return on_; }

    /** RAII span; a no-op when the tracer is off. */
    class Span
    {
      public:
        Span(Tracer &t, const char *name, const char *call,
             uint64_t id = 0);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &t_;
        int idx_ = -1;
    };

    const std::vector<Record> &records() const { return records_; }

    /** Self time of every span, in seconds, index-aligned. */
    std::vector<double> selfSeconds() const;

    /** Duration of span i in seconds. */
    double seconds(size_t i) const;

    /** Sum of self time per span name. */
    std::map<std::string, double> selfByName() const;

    /** Number of spans per name. */
    std::map<std::string, size_t> countByName() const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    std::string chromeJson(const std::string &metadataJson) const;

  private:
    int64_t nowNs() const;

    bool on_;
    Clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
