/**
 * @file
 * The NetSparse two-layer network protocol (Section 6.1.1, Figure 6).
 *
 * NetSparse packets ride on top of RDMA ("upper layers", 50 B of header).
 * The concatenation layer (12 B) carries the PR type, destination,
 * property length and PR count; the PR layer (18 B per PR) carries each
 * PR's source node, source RIG-unit id, property idx and request id.
 * Read PRs have no payload; response PRs carry the property value.
 *
 * Without concatenation, a lone PR instead uses a 10 B single-PR layer
 * under the upper layers, giving the paper's 50+10+18 = 78 B header.
 */

#ifndef NETSPARSE_NET_PROTOCOL_HH
#define NETSPARSE_NET_PROTOCOL_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace netsparse {

/** The two PR types of the protocol. */
enum class PrType : std::uint8_t
{
    Read,
    Response,
};

/**
 * One Property Request: a fine-grained remote read or its response.
 *
 * Every PR buffer in the fabric (concatenation queues, link trains,
 * switch pipes) holds these by value, so the layout is kept at 48 B:
 * the flags and small ids share the first 8 bytes. Observability state
 * that only the requester reads - the issue, NIC-egress and ToR-ingress
 * lifecycle stamps - lives in the requester shard's stamp board
 * (net/pr_latency.hh), and a span id is recomputed from the PR's
 * identity where a span event is recorded (sim/span.hh).
 */
struct PropertyRequest
{
    PrType type = PrType::Read;
    /**
     * Skip the in-switch Property Cache for this read (a header flag
     * bit, no wire-size cost). Set on corruption refetches so a
     * poisoned cache entry cannot satisfy them.
     */
    bool bypassCache : 1 = false;
    /** The response was manufactured by a ToR Property Cache hit. */
    bool servedByCache : 1 = false;
    /**
     * The span tracer records this PR. Decided at issue and kept
     * through the in-place read->response rewrite at the server or
     * the ToR cache, so response-path hops attribute to the same span.
     */
    bool traced : 1 = false;
    /**
     * Transmission attempt: 0 for the first send, k for the k-th
     * retransmission. Keys the requester's lifecycle stamps, so they
     * describe the attempt whose response was accepted.
     */
    std::uint8_t attempt = 0;
    /** RIG unit (thread) id within the source SNIC. */
    std::uint16_t srcTid = 0;
    /**
     * Tenant (job) id of the issuing virtual SNIC slice. Rides the PR
     * with zero wire-size cost - the real header's QP number already
     * identifies the tenant - and keys per-tenant cache partitions,
     * fair-queueing lanes and SLO accounting. 0 on single-job runs.
     */
    std::uint16_t tenant = 0;
    /** Node that issued the original read. */
    NodeId src = invalidNode;
    /** Per-unit request identifier. */
    std::uint32_t reqId = 0;
    /**
     * The kernel's property size in bytes (the concatenation-layer "Len"
     * field). Lets an in-switch cache hit turn a read into a response.
     */
    std::uint32_t propBytes = 0;
    /** Payload bytes: 0 for reads, K*4 for responses. */
    std::uint32_t payloadBytes = 0;
    /** Property index (the nonzero's cid). */
    PropIdx idx = 0;
    /** Deterministic checksum of the property data (responses). */
    std::uint64_t checksum = 0;
    /**
     * Lifecycle stamp: the property was produced (ToR cache hit or
     * remote fetch done). Unlike the other stamps it rides the
     * response, because the home node's fetch runs on another shard
     * than the requester's stamp board. Zero means "not stamped".
     */
    Tick fetchTick = 0;
};
static_assert(sizeof(PropertyRequest) <= 48,
              "PropertyRequest is copied through every PR buffer; keep "
              "it at 48 B");

/**
 * Header sizes and MTU (paper Table 5). Constants: the type stays so
 * that configs and call sites can name the protocol, but it carries no
 * state.
 */
struct ProtocolParams
{
    /** RDMA and below ("upper layers"). */
    static constexpr std::uint32_t upperHeaderBytes = 50;
    /** Concatenation-layer header. */
    static constexpr std::uint32_t concatHeaderBytes = 12;
    /** Per-PR header. */
    static constexpr std::uint32_t prHeaderBytes = 18;
    /** Single-PR layer used when concatenation is disabled. */
    static constexpr std::uint32_t soloHeaderBytes = 10;
    /** Maximum transmission unit. */
    static constexpr std::uint32_t mtuBytes = 1500;

    /** Fixed per-packet overhead of a concatenated packet. */
    static std::uint32_t
    concatBaseBytes()
    {
        return upperHeaderBytes + concatHeaderBytes;
    }

    /** Wire size of one PR inside a concatenated packet. */
    static std::uint32_t
    prWireBytes(const PropertyRequest &pr)
    {
        return prHeaderBytes + pr.payloadBytes;
    }

    /** Wire size of a lone, unconcatenated PR packet. */
    static std::uint32_t
    soloWireBytes(const PropertyRequest &pr)
    {
        return upperHeaderBytes + soloHeaderBytes + prHeaderBytes +
               pr.payloadBytes;
    }
};

/**
 * A network packet: one or more PRs of the same type headed to the same
 * destination node (concatenated), or a single PR (vanilla).
 */
struct Packet
{
    NodeId src = invalidNode;
    NodeId dest = invalidNode;
    PrType type = PrType::Read;
    /** True when the packet uses the concatenation layer. */
    bool concatenated = false;
    /** Tenant id of the PRs inside (see PropertyRequest::tenant). */
    std::uint16_t tenant = 0;
    /**
     * Raw (non-PR) wire size. Nonzero marks a background-traffic
     * packet: it carries no PRs, occupies exactly rawBytes on the
     * wire, skips the NetSparse middle pipes, and is discarded at the
     * destination node. 0 for every protocol packet.
     */
    std::uint32_t rawBytes = 0;
    std::vector<PropertyRequest> prs;

    /** Total bytes on the wire, headers included. */
    std::uint64_t
    wireBytes() const
    {
        if (rawBytes)
            return rawBytes;
        if (!concatenated) {
            std::uint64_t b = 0;
            for (const auto &pr : prs)
                b += ProtocolParams::soloWireBytes(pr);
            return b;
        }
        std::uint64_t b = ProtocolParams::concatBaseBytes();
        for (const auto &pr : prs)
            b += ProtocolParams::prWireBytes(pr);
        return b;
    }

    /** Payload (useful property data) bytes carried. */
    std::uint64_t
    payloadBytes() const
    {
        std::uint64_t b = 0;
        for (const auto &pr : prs)
            b += pr.payloadBytes;
        return b;
    }
};

/** The deterministic "property value" checksum for end-to-end checking. */
constexpr std::uint64_t
propertyChecksum(PropIdx idx)
{
    return splitmix64(idx ^ 0x0e75ea5eULL);
}

/**
 * Tenant-salted variant: concurrent jobs gather from different
 * matrices, so the same idx names different property data per tenant.
 * Salting the checksum makes a cross-tenant mixup detectable end to
 * end, exactly like corruption. Idxs are 32-bit in practice, so the
 * salt occupies otherwise-clear high bits and tenant 0 reproduces the
 * single-job checksum bit for bit.
 */
constexpr std::uint64_t
propertyChecksum(PropIdx idx, std::uint16_t tenant)
{
    return propertyChecksum(
        idx ^ (static_cast<std::uint64_t>(tenant) << 40));
}

} // namespace netsparse

#endif // NETSPARSE_NET_PROTOCOL_HH
