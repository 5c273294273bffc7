#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     epoch_)
        .count();
}

std::uint32_t
SpanRecorder::threadIndex()
{
    const auto self = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i)
        if (threads_[i] == self)
            return static_cast<std::uint32_t>(i);
    threads_.push_back(self);
    return static_cast<std::uint32_t>(threads_.size() - 1);
}

SpanId
SpanRecorder::open(const char *name, SpanId parent, std::int64_t query)
{
    Span s;
    s.parent = parent;
    s.query = query;
    s.name = name;
    s.startUs = nowUs();
    s.endUs = s.startUs;
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<SpanId>(spans_.size() + 1);
    s.thread = threadIndex();
    spans_.push_back(s);
    return s.id;
}

void
SpanRecorder::close(SpanId id)
{
    const double end = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id - 1).endUs = end;
}

void
SpanRecorder::setContext(SpanId parent, std::int64_t query)
{
    ctxParent_.store(parent);
    ctxQuery_.store(query);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder &rec, const char *name)
    : ScopedSpan(rec, name, rec.contextParent(), rec.contextQuery())
{
}

ScopedSpan::ScopedSpan(SpanRecorder &rec, const char *name,
                       SpanId parent, std::int64_t query)
    : rec_(rec), id_(rec.open(name, parent, query))
{
}

ScopedSpan::~ScopedSpan() { rec_.close(id_); }

double
coveredLength(std::vector<std::pair<double, double>> intervals,
              double lo, double hi)
{
    for (auto &iv : intervals) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = lo;
    for (const auto &iv : intervals) {
        const double from = std::max(iv.first, reach);
        if (iv.second > from) {
            covered += iv.second - from;
            reach = iv.second;
        }
    }
    return covered;
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans, const std::string &name)
{
    std::unordered_map<SpanId, std::vector<std::pair<double, double>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startUs, s.endUs);
    std::vector<double> out;
    for (const Span &s : spans) {
        if (name != s.name)
            continue;
        const auto it = children.find(s.id);
        const double covered =
            it == children.end()
                ? 0.0
                : coveredLength(it->second, s.startUs, s.endUs);
        out.push_back(s.durationUs() - covered);
    }
    return out;
}

std::vector<double>
durationsUs(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (name == s.name)
            out.push_back(s.durationUs());
    return out;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
sum(const std::vector<double> &values)
{
    double total = 0.0;
    for (double v : values)
        total += v;
    return total;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%.*s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
                     "%u, \"parent\": %u, \"query\": %lld}}",
                     i == 0 ? "" : ",", s.name,
                     static_cast<int>(std::string(s.name).find('.')),
                     s.name, s.thread, s.startUs, s.durationUs(), s.id,
                     s.parent, static_cast<long long>(s.query));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
