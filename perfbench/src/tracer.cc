#include "tracer.hh"

#include "stats/json.hh"
#include "util/log.hh"

namespace perfbench
{

Tracer::Tracer(bool on) : on_(on), origin_(Clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

Tracer::Span::Span(Tracer &t, const char *name, const char *call,
                   uint64_t id)
    : t_(t)
{
    if (!t_.on_)
        return;
    Record r{name, call, t_.nowNs(), 0,
             t_.stack_.empty() ? -1 : t_.stack_.back(), id};
    idx_ = int(t_.records_.size());
    t_.records_.push_back(r);
    t_.stack_.push_back(idx_);
}

Tracer::Span::~Span()
{
    if (idx_ < 0)
        return;
    t_.records_[size_t(idx_)].endNs = t_.nowNs();
    t_.stack_.pop_back();
}

double
Tracer::seconds(size_t i) const
{
    return double(records_[i].endNs - records_[i].startNs) * 1e-9;
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<double> self(records_.size());
    for (size_t i = 0; i < records_.size(); ++i)
        self[i] = seconds(i);
    for (size_t i = 0; i < records_.size(); ++i) {
        if (records_[i].parent >= 0)
            self[size_t(records_[i].parent)] -= seconds(i);
    }
    return self;
}

std::map<std::string, double>
Tracer::selfByName() const
{
    std::map<std::string, double> out;
    std::vector<double> self = selfSeconds();
    for (size_t i = 0; i < records_.size(); ++i)
        out[records_[i].name] += self[i];
    return out;
}

std::map<std::string, size_t>
Tracer::countByName() const
{
    std::map<std::string, size_t> out;
    for (const Record &r : records_)
        ++out[r.name];
    return out;
}

std::string
Tracer::chromeJson(const std::string &metadataJson) const
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"metadata\": ";
    out += metadataJson;
    out += ",\n\"traceEvents\": [";
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        out += nbl::strfmt(
            "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %llu, "
            "\"call\": %s}}",
            i ? "," : "", r.name, r.name, double(r.startNs) * 1e-3,
            double(r.endNs - r.startNs) * 1e-3, i, r.parent,
            (unsigned long long)r.id,
            nbl::stats::jsonQuote(r.call).c_str());
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
