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

StampBoard::StampBoard(std::vector<std::uint32_t> nodeShard,
                       std::uint32_t tenants, std::uint32_t clients)
    : tenants_(tenants), nodeShard_(std::move(nodeShard)),
      slices_(nodeShard_.size() * tenants),
      latency_(tenants * (std::size_t{1} +
                          *std::max_element(nodeShard_.begin(),
                                            nodeShard_.end())))
{
    for (Slice &s : slices_)
        s.clients.resize(clients);
}

PrLatencyStats
StampBoard::latency(std::uint32_t tenant) const
{
    PrLatencyStats all;
    for (std::size_t i = tenant; i < latency_.size(); i += tenants_)
        all.merge(latency_[i]);
    return all;
}

void
StampBoard::accept(const PropertyRequest &pr, std::uint32_t lastAttempt,
                   Tick now)
{
    ClientTable &t = table(pr);
    PrStamps stamps;
    for (std::uint32_t a = 0; a <= lastAttempt; ++a) {
        if (ClientTable::Slot *s = t.find(pr.reqId, a)) {
            if (a == pr.attempt)
                stamps = s->stamps;
            t.erase(static_cast<std::size_t>(s - t.slots.data()));
        }
    }
    if (latency_[nodeShard_[pr.src] * tenants_ + pr.tenant].record(
            stamps, pr, now))
        slices_[pr.src * tenants_ + pr.tenant].totalNs.sample(
            deltaNs(stamps.issueTick, now));
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

bool
PrLatencyStats::record(const PrStamps &stamps, const PropertyRequest &pr,
                       Tick now)
{
    // A zero stamp means the stage never happened on this run (e.g. no
    // ToR middle pipes) - skip the deltas that depend on it rather
    // than pollute the histograms with bogus zero-origin spans.
    const PrStamps &s = stamps;
    if (s.issueTick == 0)
        return false;
    ++responses;
    if (pr.servedByCache)
        ++cacheServed;
    totalNs.sample(deltaNs(s.issueTick, now));
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
    return true;
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
