/**
 * @file
 * Per-PR latency lifecycle accounting (the Fig. 14 style breakdown).
 *
 * Every read attempt is stamped at each stage: RIG issue -> SNIC
 * egress -> requester's ToR ingress -> fetch (ToR Property Cache hit
 * or remote DRAM) -> response accepted at the client. The first three
 * stamps are written on the requester's shard - the shard map keeps a
 * rack's ToR, hosts and SNICs on one queue - so they live in the
 * requester's slice of the StampBoard, keyed by the attempt's
 * identity, and never ride the PR. The fetch stamp is written on the
 * home node's shard, so it rides the response
 * (PropertyRequest::fetchTick). The PrLatencyStats of the requester's
 * (shard, tenant) turns each accepted response into stage deltas:
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
 * middle pipes on a baseline run) simply records nothing. The board
 * exists only while telemetry is on, so the lossless fast path and the
 * exported stats document are untouched otherwise; per-shard
 * collectors merge exactly (integer bucket counts), keeping the
 * cluster-wide document byte-identical at any shard count.
 */

#ifndef NETSPARSE_NET_PR_LATENCY_HH
#define NETSPARSE_NET_PR_LATENCY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hh"
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

/** Stage-delta latency accumulators for one collector (shard/tenant). */
struct PrLatencyStats
{
    /**
     * Shared histogram geometry: [0, 100 us) in ns, 50 ns buckets.
     * Every collector uses it so per-shard histograms merge exactly
     * into the tenant-wide ones and percentile() interpolates on the
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

    std::uint64_t responses = 0;
    std::uint64_t cacheServed = 0;

    /**
     * Record one accepted response @p pr, whose attempt's board entry
     * held @p stamps; @p now is the client's tick. False, recording
     * nothing, when the attempt has no issue stamp.
     */
    bool record(const PrStamps &stamps, const PropertyRequest &pr,
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

/**
 * The run's PR-latency recorder. For every (node, tenant) slice it
 * holds the PrStamps of each read attempt the slice's client RIG units
 * issued and have not had answered, and the slice's totalNs average;
 * the histograms live in one PrLatencyStats per (shard, tenant).
 * Components reach it through EventQueue::stampBoard(), which is null
 * unless telemetry is on. One board serves every shard: a slice's
 * clients, SNIC egress and ToR middle pipe run on its rack's queue, so
 * each slice and each collector is written by one shard only.
 *
 * Only the issuing client opens an entry; the SNIC egress path and the
 * ToR middle pipe stamp an existing entry and ignore a missing one (a
 * retransmit's stray copy after its reqId was answered). The accepted
 * response records its attempt's stamps and drops the reqId's other
 * attempts; a failed command drops its client's entries.
 *
 * Each client RIG unit has its own flat open-addressing table, indexed
 * directly by (node, tenant, srcTid). A client's reqIds are consecutive,
 * so hashing by the reqId itself puts its live attempts in consecutive
 * slots: issuing a chunk writes adjacent memory, and at paper scale
 * (millions of attempts in flight) a lookup costs about one cache miss
 * instead of a random probe into one huge table. Tables grow with the
 * client's attempts in flight and are never preallocated.
 */
class StampBoard
{
  public:
    /** @p tenants slices of @p clients client RIG units per node; node
     *  n runs on shard @p nodeShard[n]. */
    StampBoard(std::vector<std::uint32_t> nodeShard, std::uint32_t tenants,
               std::uint32_t clients);

    /** Open @p pr's attempt, issued at @p now. */
    void
    issue(const PropertyRequest &pr, Tick now)
    {
        table(pr).insert(pr.reqId, pr.attempt, now);
    }

    /** Stamp NIC egress of @p pr's attempt, if it is on the board. */
    void
    stampEgress(const PropertyRequest &pr, Tick now)
    {
        if (ClientTable::Slot *s = table(pr).find(pr.reqId, pr.attempt))
            s->stamps.egressTick = now;
    }

    /** Stamp ToR ingress of @p pr's attempt, if it is on the board. */
    void
    stampTorIngress(const PropertyRequest &pr, Tick now)
    {
        if (ClientTable::Slot *s = table(pr).find(pr.reqId, pr.attempt))
            s->stamps.torIngressTick = now;
    }

    /**
     * @p pr's response was accepted at @p now: record its attempt's
     * stamps (nothing if absent) in its slice and its shard's collector
     * and drop attempts 0..@p lastAttempt of its reqId.
     */
    void accept(const PropertyRequest &pr, std::uint32_t lastAttempt,
                Tick now);

    /** Drop every entry of one client RIG unit (its command failed). */
    void
    dropClient(std::uint16_t tenant, NodeId src, std::uint16_t srcTid)
    {
        slices_[src * tenants_ + tenant].clients[srcTid] = ClientTable{};
    }

    /** Tenant @p tenant's collectors merged over the shards (exact). */
    PrLatencyStats latency(std::uint32_t tenant) const;

    /** End-to-end latency of slice (@p node, @p tenant)'s responses. */
    const Average &
    totalNs(NodeId node, std::uint32_t tenant) const
    {
        return slices_[node * tenants_ + tenant].totalNs;
    }

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

    struct Slice
    {
        std::vector<ClientTable> clients; ///< By srcTid.
        Average totalNs;
    };

    ClientTable &
    table(const PropertyRequest &pr)
    {
        return slices_[pr.src * tenants_ + pr.tenant].clients[pr.srcTid];
    }

    std::uint32_t tenants_;
    std::vector<std::uint32_t> nodeShard_;
    std::vector<Slice> slices_; ///< Nid-major, like the fabric's.
    std::vector<PrLatencyStats> latency_; ///< Shard-major.
};

} // namespace netsparse

#endif // NETSPARSE_NET_PR_LATENCY_HH
