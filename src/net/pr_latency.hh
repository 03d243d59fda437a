/**
 * @file
 * Per-PR latency lifecycle accounting (the Fig. 14 style breakdown).
 *
 * Every read attempt is stamped at each stage: RIG issue -> SNIC
 * egress -> requester's ToR ingress -> fetch (ToR Property Cache hit
 * or remote DRAM) -> response accepted at the client. The first three
 * stamps are written on the requester's shard - the shard map keeps a
 * rack's ToR, hosts and SNICs on one queue - so they live in that
 * shard's StampBoard, keyed by the attempt's identity, and never ride
 * the PR. The fetch stamp is written on the home node's shard, so it
 * rides the response (PropertyRequest::fetchTick). PrLatencyStats
 * turns the stamps of each accepted response into stage-delta
 * histograms:
 *
 *   nicNs          issue -> egress: NIC-side time (concatenation
 *                  wait, transmit buffering) before serialization
 *   requestNetNs   egress -> ToR ingress: first-hop serialization,
 *                  queueing, propagation and the ingress pipe
 *   cacheNs        ToR ingress -> fetch, responses served by the
 *                  Property Cache. Zero by construction: the ToR
 *                  stamps ingress and a hit in the same middle-pipe
 *                  call, and the lookup latency is charged to
 *                  requestNetNs with the ingress pipe
 *   remoteNs       ToR ingress -> fetch, cache misses: spine network
 *                  plus the home node's PCIe/DRAM fetch
 *   responseNetNs  fetch -> client: the response's way back
 *   totalNs        issue -> client, every accepted response
 *
 * On a retransmitted PR the stamps describe the attempt whose
 * response was accepted. A stage whose stamps are absent (e.g. no
 * middle pipes on a baseline run) simply records nothing. Collection
 * is gated by the cluster on telemetry being enabled, so the lossless
 * fast path and the exported stats document are untouched otherwise;
 * per-node collectors merge exactly (integer bucket counts), keeping
 * the cluster-wide document byte-identical at any shard count.
 */

#ifndef NETSPARSE_NET_PR_LATENCY_HH
#define NETSPARSE_NET_PR_LATENCY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace netsparse {

/** The requester-side lifecycle stamps of one read attempt (0: unset). */
struct PrStamps
{
    /** RIG client issued the read (RigClientUnit::sendReadPr). */
    Tick issueTick = 0;
    /** The read left the SNIC onto the NIC egress link. */
    Tick egressTick = 0;
    /** The read entered the requester's ToR middle pipe. */
    Tick torIngressTick = 0;
};

/**
 * One shard's stamp board: the PrStamps of every read attempt issued on
 * the shard and not yet answered, keyed by (tenant, src, srcTid,
 * reqId, attempt). Components reach it through EventQueue::stampBoard(),
 * which is null unless PR-latency accounting or span capture is on.
 *
 * Only the issuing client opens an entry; the SNIC egress path and the
 * ToR middle pipe stamp an existing entry and ignore a missing one (a
 * retransmit's stray copy after its reqId was answered). The accepted
 * response takes its attempt's entry and drops the reqId's other
 * attempts; a failed command drops its client's entries.
 *
 * Each client RIG unit gets its own flat open-addressing table, found
 * through a small directory. A client's reqIds are consecutive, so
 * hashing by the reqId itself puts its live attempts in consecutive
 * slots: issuing a chunk writes adjacent memory, and at paper scale
 * (millions of attempts in flight) a lookup costs about one cache miss
 * instead of a random probe into one huge table. Tables grow with the
 * client's attempts in flight and are never preallocated.
 */
class StampBoard
{
  public:
    /** Open @p pr's attempt, issued at @p now. */
    void issue(const PropertyRequest &pr, Tick now);

    /** Stamp NIC egress of @p pr's attempt, if it is on the board. */
    void
    stampEgress(const PropertyRequest &pr, Tick now)
    {
        if (PrStamps *s = find(pr))
            s->egressTick = now;
    }

    /** Stamp ToR ingress of @p pr's attempt, if it is on the board. */
    void
    stampTorIngress(const PropertyRequest &pr, Tick now)
    {
        if (PrStamps *s = find(pr))
            s->torIngressTick = now;
    }

    /**
     * @p pr's response was accepted: return its attempt's stamps (all
     * zero if absent) and drop attempts 0..@p lastAttempt of its reqId.
     */
    PrStamps accept(const PropertyRequest &pr, std::uint32_t lastAttempt);

    /** Drop every entry of one client RIG unit (its command failed). */
    void dropClient(std::uint16_t tenant, NodeId src,
                    std::uint16_t srcTid);

    /** Attempts on the board. */
    std::size_t size() const { return size_; }

  private:
    /** One client's attempts; the reqId is the hash. */
    struct ClientTable
    {
        struct Slot
        {
            std::uint32_t reqId = 0;
            std::uint8_t attempt = 0;
            bool used = false;
            PrStamps stamps;
        };

        /** Power-of-two slot array; empty until the first issue. */
        std::vector<Slot> slots;
        std::size_t live = 0;

        Slot *
        find(std::uint32_t reqId, std::uint32_t attempt)
        {
            if (slots.empty())
                return nullptr;
            const std::size_t mask = slots.size() - 1;
            for (std::size_t i = reqId & mask; slots[i].used;
                 i = (i + 1) & mask)
                if (slots[i].reqId == reqId && slots[i].attempt == attempt)
                    return &slots[i];
            return nullptr;
        }

        void insert(std::uint32_t reqId, std::uint8_t attempt, Tick now);
        /** Put @p s in the first free slot of its probe chain. */
        void place(const Slot &s);
        /** Free slot @p i (backward-shift deletion, no tombstones). */
        void erase(std::size_t i);
    };

    static std::uint64_t
    clientKey(std::uint16_t tenant, NodeId src, std::uint16_t srcTid)
    {
        return static_cast<std::uint64_t>(tenant) << 48 |
               static_cast<std::uint64_t>(src) << 16 | srcTid;
    }

    /** @p key's table, or null when that client never issued here. */
    ClientTable *
    tableOf(std::uint64_t key)
    {
        if (dir_.empty())
            return nullptr;
        const std::size_t mask = dir_.size() - 1;
        for (std::size_t i = splitmix64(key) & mask; dir_[i].table != 0;
             i = (i + 1) & mask)
            if (dir_[i].key == key)
                return &tables_[dir_[i].table - 1];
        return nullptr;
    }

    PrStamps *
    find(const PropertyRequest &pr)
    {
        ClientTable *t = tableOf(clientKey(pr.tenant, pr.src, pr.srcTid));
        ClientTable::Slot *s = t ? t->find(pr.reqId, pr.attempt) : nullptr;
        return s ? &s->stamps : nullptr;
    }

    /** @p key's table, created on its client's first issue. */
    ClientTable &tableFor(std::uint64_t key);

    /** Directory slot: table is an index into tables_ plus one, and
     *  0 marks a free slot. Clients are never removed. */
    struct DirSlot
    {
        std::uint64_t key = 0;
        std::uint32_t table = 0;
    };
    /** Put @p d in the first free directory slot of its probe chain. */
    void placeDir(const DirSlot &d);

    std::vector<DirSlot> dir_;
    std::vector<ClientTable> tables_;
    std::size_t size_ = 0;
};

/** Stage-delta latency accumulators for one collector (node/cluster). */
struct PrLatencyStats
{
    /**
     * Shared histogram geometry: [0, 100 us) in ns, 50 ns buckets.
     * Every collector uses it so per-node histograms merge exactly
     * into the cluster-wide ones and percentile() interpolates on the
     * same grid everywhere.
     */
    static constexpr double histLoNs = 0.0;
    static constexpr double histHiNs = 100000.0;
    static constexpr std::size_t histBuckets = 2000;

    Histogram nicNs{histLoNs, histHiNs, histBuckets};
    Histogram requestNetNs{histLoNs, histHiNs, histBuckets};
    Histogram cacheNs{histLoNs, histHiNs, histBuckets};
    Histogram remoteNs{histLoNs, histHiNs, histBuckets};
    Histogram responseNetNs{histLoNs, histHiNs, histBuckets};
    Histogram totalNs{histLoNs, histHiNs, histBuckets};

    /** End-to-end latency summary (count/mean/min/max) for per-node
     *  export, where full histograms would bloat the document. */
    Average totalAvgNs;

    std::uint64_t responses = 0;
    std::uint64_t cacheServed = 0;

    /**
     * Record one accepted response @p pr, whose attempt's board entry
     * held @p stamps; @p now is the client's tick.
     */
    void record(const PrStamps &stamps, const PropertyRequest &pr,
                Tick now);

    /** Fold another collector in (exact; geometries are shared). */
    void merge(const PrLatencyStats &o);

    /**
     * Register the full decomposition under "<prefix>.": per stage a
     * histogram "<prefix>.<stage>" plus exact-percentile scalars
     * ".p50/.p90/.p99/.p999", and the ".responses"/".cacheServed"
     * counters. Used for the cluster-wide aggregate.
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;
};

} // namespace netsparse

#endif // NETSPARSE_NET_PR_LATENCY_HH
