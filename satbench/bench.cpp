#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace satbench
{

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) { return t.tv_sec + t.tv_usec / 1e6; };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Digest &
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    return *this;
}

Digest &
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
    return *this;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

int
Tracer::begin(const std::string &name, long op)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({name, now, now, -1, op, 0});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int index)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(m_);
    spans_[static_cast<std::size_t>(index)].end = now;
}

int
Tracer::add(const std::string &name, long op, Clock::time_point start,
            Clock::time_point end, int parent, int tid)
{
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({name, start, end, parent, op, tid});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_;
}

double
Tracer::totalMs(const std::string &name) const
{
    double ms = 0;
    for (const Span &s : spans())
        if (s.name == name)
            ms += secondsBetween(s.start, s.end) * 1e3;
    return ms;
}

namespace
{

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/** Length in seconds of the union of @p iv clipped to [from, to]. */
double
unionSeconds(std::vector<Interval> iv, Clock::time_point from,
             Clock::time_point to)
{
    for (auto &i : iv) {
        i.first = std::max(i.first, from);
        i.second = std::min(i.second, to);
    }
    std::sort(iv.begin(), iv.end());
    double total = 0;
    Clock::time_point reach = from;
    for (const auto &[a, b] : iv) {
        const auto lo = std::max(a, reach);
        if (b > lo) {
            total += secondsBetween(lo, b);
            reach = b;
        }
    }
    return total;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

double
Tracer::coverage(Clock::time_point from, Clock::time_point to) const
{
    std::vector<Interval> roots;
    for (const Span &s : spans())
        if (s.parent < 0)
            roots.emplace_back(s.start, s.end);
    const double wall = secondsBetween(from, to);
    return wall > 0 ? unionSeconds(std::move(roots), from, to) / wall : 0;
}

std::map<std::string, std::pair<double, double>>
Tracer::layerTimes() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<Interval>> children(all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    std::map<std::string, std::pair<double, double>> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const double dur = secondsBetween(all[i].start, all[i].end);
        const double covered =
            unionSeconds(children[i], all[i].start, all[i].end);
        auto &slot = out[layerOf(all[i].name)];
        slot.first += dur * 1e3;
        slot.second += (dur - covered) * 1e3;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    auto us = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   t - epoch_)
            .count();
    };
    const std::vector<Span> all = spans();
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << "  {\"name\": \"" << s.name << "\", \"cat\": \""
           << layerOf(s.name) << "\", \"ph\": \"X\", \"ts\": "
           << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
           << ", \"pid\": 1, \"tid\": " << s.tid
           << ", \"args\": {\"span\": " << i << ", \"parent\": "
           << s.parent << ", \"op\": " << s.op << "}}"
           << (i + 1 < all.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

} // namespace satbench
