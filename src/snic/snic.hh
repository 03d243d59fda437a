/**
 * @file
 * The NetSparse SmartNIC (Figure 4): RIG units (client and server),
 * the shared Idx Filter, the NIC-level (De)Concatenator, the transmit
 * buffer, and the Q Control dispatcher for incoming read PRs.
 */

#ifndef NETSPARSE_SNIC_SNIC_HH
#define NETSPARSE_SNIC_SNIC_HH

#include <memory>
#include <string>
#include <vector>

#include "concat/concatenator.hh"
#include "net/link.hh"
#include "net/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "snic/idx_filter.hh"
#include "snic/pcie.hh"
#include "snic/rig_unit.hh"

namespace netsparse {

/**
 * Static SNIC parameters (Table 5 defaults), shared by every slice of a
 * cluster. What differs per slice - its node, tenant, owner partition
 * and NIC concatenation point - and what the cluster derives from its
 * own settings - the ablation switches and read batching - are Snic
 * constructor arguments.
 */
struct SnicConfig
{
    /** Total RIG units; half run as clients, half as servers. */
    std::uint32_t numRigUnits = 32;
    RigUnitConfig rigUnit;
    PcieConfig pcie;
};

/**
 * One node's SmartNIC. Client units are addressed by tids
 * [0, numClients); server units by [numClients, numRigUnits).
 */
class Snic : public PacketSink, public SnicContext
{
  public:
    /**
     * @param nic_concat the NIC-level concatenation point.
     * @param tenant the slice's tenant (job) id, stamped on every PR it
     *        issues (0 on single-job runs).
     * @param owners the Destination Solver: the job's row partition.
     * @param num_idxs Idx Filter width (columns of the sparse matrix).
     * @param filter, coalesce the ablation switches the RIG clients
     *        read (SnicContext::filtering, coalescing).
     * @param batched_reads send all response PRs of one received
     *        packet's reads with a single event at the last fetch
     *        completion (docs/scaling.md), instead of one event per
     *        read; on under ClusterConfig::eventBatching. The per-PR
     *        pipeline, PCIe and memory accounting are unchanged;
     *        responses of a packet leave together at the latest of
     *        their fetch ticks - a skew bounded by the packet's own
     *        PCIe serialization - and in packet order, so the result
     *        stays deterministic and shard-invariant. Off by default:
     *        the timing-exact model sends each response at its own
     *        fetch tick.
     */
    Snic(EventQueue &eq, SnicConfig cfg, ConcatConfig nic_concat,
         NodeId self, std::uint16_t tenant, Partition1D owners,
         std::uint64_t num_idxs, std::string name, bool filter = true,
         bool coalesce = true, bool batched_reads = false);

    /** Attach the egress link toward this node's ToR switch. */
    void attachEgress(Link *egress) { egress_ = egress; }

    /** Reset per-kernel state (Idx Filter) before an iteration. */
    void configureForKernel();

    // --- Host-facing interface (driven by the verbs layer) ---

    std::uint32_t numClientUnits() const
    {
        return static_cast<std::uint32_t>(clients_.size());
    }

    /** True while client unit @p c executes a command. */
    bool clientBusy(std::uint32_t c) const { return clients_[c]->busy(); }

    /**
     * Post a RIG work request to client unit @p c. The call models the
     * host's doorbell write: the command starts one PCIe crossing later.
     */
    void postRig(std::uint32_t c, RigCommand cmd);

    // --- Network-facing interface ---

    void receivePacket(Packet &&pkt, std::uint32_t inPort) override;

    // --- SnicContext (services for the RIG units) ---

    NodeId selfNode() const override { return self_; }
    std::uint16_t tenant() const override { return tenant_; }
    const Partition1D &owners() const override { return owners_; }
    bool filtering() const override { return filtering_; }
    bool coalescing() const override { return coalescing_; }
    void sendPr(PropertyRequest &&pr, NodeId dest) override;
    bool txBackpressured() const override;
    IdxFilter &idxFilter() override { return filter_; }
    PcieModel &pcie() override { return pcie_; }
    const std::string &nodeName() const override { return name_; }
    std::uint32_t spanComp() const override { return spanComp_; }

    /** Set this SNIC's id in the run's span component name table
     *  (sim/span.hh); assigned by the scheduler. */
    void setSpanComp(std::uint32_t comp) { spanComp_ = comp; }

    // --- Statistics ---

    RigClientStats aggregateClientStats() const;
    RigServerStats aggregateServerStats() const;

    /**
     * Register per-RIG-unit, Idx-Filter, concatenator and rx counters
     * under "<prefix>." (the docs/observability.md SNIC contract, e.g.
     * "node3.snic.rig0.prsIssued").
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;
    std::uint64_t rxPackets() const { return rxPackets_; }
    std::uint64_t rxBytes() const { return rxBytes_; }
    std::uint64_t rxPayloadBytes() const { return rxPayloadBytes_; }
    std::uint64_t rxResponses() const { return rxResponses_; }
    std::uint64_t rxReads() const { return rxReads_; }

    /** Read PRs issued by this node still awaiting responses. */
    std::uint64_t inflightPrs() const;
    /** Retransmissions performed so far (telemetry retransmit rate). */
    std::uint64_t totalRetransmits() const;

    const std::string &name() const { return name_; }

    /** Host memory held by the NIC concatenator's CQ buffers. */
    std::uint64_t
    concatHeldBytes() const
    {
        return concat_->heldBufferBytes();
    }

    /**
     * The event queue this SNIC schedules on. Under the parallel
     * engine the host must share it (host/host_node.cc asserts so):
     * doorbells and completions cross the host/SNIC boundary without a
     * Link, so the pair is indivisible for sharding.
     */
    EventQueue &eventQueue() const { return eq_; }

  private:
    /** Tx buffer; the RIG clients stall when it fills (backpressure). */
    static constexpr std::uint64_t kTxBufferBytes = 2ull << 20;

    EventQueue &eq_;
    SnicConfig cfg_;
    NodeId self_;
    std::uint16_t tenant_;
    Partition1D owners_;
    std::string name_;
    bool filtering_;
    bool coalescing_;
    bool batchedReads_;

    IdxFilter filter_;
    PcieModel pcie_;
    std::vector<std::unique_ptr<RigClientUnit>> clients_;
    std::vector<std::unique_ptr<RigServerUnit>> servers_;
    std::unique_ptr<Concatenator> concat_;
    Link *egress_ = nullptr;
    std::uint32_t nextServer_ = 0; // Q Control round-robin pointer
    /** Span component id (sim/span.hh); meaningful only when spans on. */
    std::uint32_t spanComp_ = 0;

    std::uint64_t rxPackets_ = 0;
    std::uint64_t rxBytes_ = 0;
    std::uint64_t rxPayloadBytes_ = 0;
    std::uint64_t rxResponses_ = 0;
    std::uint64_t rxReads_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_SNIC_SNIC_HH
