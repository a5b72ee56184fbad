#include "tracer.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/json.hh"

namespace ubrc::perfbench
{

int64_t
Tracer::sinceEpoch(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                epoch)
        .count();
}

int32_t
Tracer::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int32_t parent, uint64_t id)
{
    if (!on)
        return noSpan;
    Span s{name, sinceEpoch(start), sinceEpoch(end), parent, id};
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(s));
    return static_cast<int32_t>(spans.size() - 1);
}

int32_t
Tracer::open(const std::string &name, int32_t parent, uint64_t id)
{
    const Clock::time_point now = Clock::now();
    return add(name, now, now, parent, id);
}

void
Tracer::close(int32_t span)
{
    if (!on || span == noSpan)
        return;
    const int64_t end = sinceEpoch(Clock::now());
    std::lock_guard<std::mutex> lock(mu);
    spans[size_t(span)].endNs = end;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

std::vector<int64_t>
Tracer::selfNs() const
{
    // Children of one parent may run in parallel (grid tasks), so a
    // parent's covered time is the union of its children's intervals.
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent != noSpan)
            kids[size_t(s.parent)].emplace_back(s.startNs, s.endNs);
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, curLo = 0, curHi = -1;
        for (const auto &[lo, hi] : iv) {
            if (lo > curHi) {
                covered += std::max<int64_t>(0, curHi - curLo);
                curLo = lo;
                curHi = hi;
            } else {
                curHi = std::max(curHi, hi);
            }
        }
        covered += std::max<int64_t>(0, curHi - curLo);
        self[i] = std::max<int64_t>(
            0, spans[i].endNs - spans[i].startNs - covered);
    }
    return self;
}

bool
Tracer::write(const std::string &path) const
{
    const std::vector<int64_t> self = selfNs();
    json::Writer w(false);
    w.beginObject();
    w.key("spans").beginArray();
    {
        std::lock_guard<std::mutex> lock(mu);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("start_ns", s.startNs);
            w.field("end_ns", s.endNs);
            w.field("self_ns", self[i]);
            w.field("parent", int64_t(s.parent));
            w.field("id", s.id);
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = std::fputs(w.str().c_str(), f) >= 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace ubrc::perfbench
