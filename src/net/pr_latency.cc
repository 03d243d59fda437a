#include "net/pr_latency.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace netsparse {

namespace {

double
deltaNs(Tick from, Tick to)
{
    return ticks::toNs(to - from);
}

} // namespace

void
StampBoard::issue(const PropertyRequest &pr, Tick now)
{
    tableFor(clientKey(pr.tenant, pr.src, pr.srcTid))
        .insert(pr.reqId, pr.attempt, now);
    ++size_;
}

PrStamps
StampBoard::accept(const PropertyRequest &pr, std::uint32_t lastAttempt)
{
    PrStamps out;
    ClientTable *t = tableOf(clientKey(pr.tenant, pr.src, pr.srcTid));
    if (!t)
        return out;
    for (std::uint32_t a = 0; a <= lastAttempt; ++a) {
        if (ClientTable::Slot *s = t->find(pr.reqId, a)) {
            if (a == pr.attempt)
                out = s->stamps;
            t->erase(static_cast<std::size_t>(s - t->slots.data()));
            --size_;
        }
    }
    return out;
}

void
StampBoard::dropClient(std::uint16_t tenant, NodeId src,
                       std::uint16_t srcTid)
{
    if (ClientTable *t = tableOf(clientKey(tenant, src, srcTid))) {
        for (auto &slot : t->slots)
            slot.used = false;
        size_ -= t->live;
        t->live = 0;
    }
}

StampBoard::ClientTable &
StampBoard::tableFor(std::uint64_t key)
{
    if (ClientTable *t = tableOf(key))
        return *t;
    // <= 50% load keeps the directory's probe chains short.
    if (2 * (tables_.size() + 1) > dir_.size()) {
        std::vector<DirSlot> old(std::max<std::size_t>(64, 2 * dir_.size()));
        old.swap(dir_);
        for (const DirSlot &d : old)
            if (d.table != 0)
                placeDir(d);
    }
    tables_.emplace_back();
    placeDir(DirSlot{key, static_cast<std::uint32_t>(tables_.size())});
    return tables_.back();
}

void
StampBoard::placeDir(const DirSlot &d)
{
    const std::size_t mask = dir_.size() - 1;
    std::size_t i = splitmix64(d.key) & mask;
    while (dir_[i].table != 0)
        i = (i + 1) & mask;
    dir_[i] = d;
}

void
StampBoard::ClientTable::insert(std::uint32_t reqId, std::uint8_t attempt,
                                Tick now)
{
    // <= 50% load: a client's live reqIds are nearly consecutive, so
    // they mostly sit in their home slots.
    if (2 * (live + 1) > slots.size()) {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots.size()));
        old.swap(slots);
        for (const Slot &s : old)
            if (s.used)
                place(s);
    }
    place(Slot{reqId, attempt, true, PrStamps{now, 0, 0}});
    ++live;
}

void
StampBoard::ClientTable::place(const Slot &s)
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = s.reqId & mask;
    while (slots[i].used) {
        ns_assert(slots[i].reqId != s.reqId || slots[i].attempt != s.attempt,
                  "attempt stamped twice");
        i = (i + 1) & mask;
    }
    slots[i] = s;
}

void
StampBoard::ClientTable::erase(std::size_t i)
{
    const std::size_t mask = slots.size() - 1;
    slots[i].used = false;
    --live;
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; slots[j].used; j = (j + 1) & mask) {
        std::size_t home = slots[j].reqId & mask;
        // Move j into the hole unless j's probe chain starts after the
        // hole (circular interval test).
        bool between = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
        if (!between) {
            slots[hole] = slots[j];
            slots[j].used = false;
            hole = j;
        }
    }
}

void
PrLatencyStats::record(const PrStamps &stamps, const PropertyRequest &pr,
                       Tick now)
{
    // A zero stamp means the stage never happened on this run (e.g. no
    // ToR middle pipes) - skip the deltas that depend on it rather
    // than pollute the histograms with bogus zero-origin spans.
    const PrStamps &s = stamps;
    if (s.issueTick == 0)
        return;
    ++responses;
    if (pr.servedByCache)
        ++cacheServed;
    totalNs.sample(deltaNs(s.issueTick, now));
    totalAvgNs.sample(deltaNs(s.issueTick, now));
    if (s.egressTick >= s.issueTick && s.egressTick != 0) {
        nicNs.sample(deltaNs(s.issueTick, s.egressTick));
        if (s.torIngressTick >= s.egressTick && s.torIngressTick != 0)
            requestNetNs.sample(deltaNs(s.egressTick, s.torIngressTick));
    }
    if (pr.fetchTick != 0) {
        if (s.torIngressTick != 0 && pr.fetchTick >= s.torIngressTick) {
            double d = deltaNs(s.torIngressTick, pr.fetchTick);
            (pr.servedByCache ? cacheNs : remoteNs).sample(d);
        }
        if (now >= pr.fetchTick)
            responseNetNs.sample(deltaNs(pr.fetchTick, now));
    }
}

void
PrLatencyStats::merge(const PrLatencyStats &o)
{
    nicNs.merge(o.nicNs);
    requestNetNs.merge(o.requestNetNs);
    cacheNs.merge(o.cacheNs);
    remoteNs.merge(o.remoteNs);
    responseNetNs.merge(o.responseNetNs);
    totalNs.merge(o.totalNs);
    totalAvgNs.merge(o.totalAvgNs);
    responses += o.responses;
    cacheServed += o.cacheServed;
}

void
PrLatencyStats::exportStats(StatRegistry &reg,
                            const std::string &prefix) const
{
    auto stage = [&](const std::string &name, const Histogram &h) {
        const std::string base = prefix + "." + name;
        reg.setHistogram(base, h);
        reg.set(base + ".p50", h.percentile(50.0));
        reg.set(base + ".p90", h.percentile(90.0));
        reg.set(base + ".p99", h.percentile(99.0));
        reg.set(base + ".p999", h.percentile(99.9));
    };
    stage("nicNs", nicNs);
    stage("requestNetNs", requestNetNs);
    stage("cacheNs", cacheNs);
    stage("remoteNs", remoteNs);
    stage("responseNetNs", responseNetNs);
    stage("totalNs", totalNs);
    reg.set(prefix + ".responses", static_cast<double>(responses));
    reg.set(prefix + ".cacheServed", static_cast<double>(cacheServed));
}

} // namespace netsparse
