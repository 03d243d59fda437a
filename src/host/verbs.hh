/**
 * @file
 * A miniature RDMA-Verbs-style host API with the paper's IBV_WR_RIG
 * extension (Section 5.4).
 *
 * The paper exposes RIG offload as a new opcode in ibv_send_wr rather
 * than a separate library; this header mirrors that shape: the
 * application builds a work request, posts it to a queue pair bound to
 * the local SNIC, and polls a completion queue.
 */

#ifndef NETSPARSE_HOST_VERBS_HH
#define NETSPARSE_HOST_VERBS_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "sim/event_queue.hh"
#include "snic/snic.hh"

namespace netsparse {

/** Work-request opcodes. Only the RIG extension is modeled in full. */
enum class IbvWrOpcode : std::uint32_t
{
    RdmaRead, ///< classic fine-grained one-sided read
    Rig,      ///< the NetSparse Remote Indexed Gather extension
};

/** RIG-specific fields of a work request (Section 5.1). */
struct IbvRigAttr
{
    /** Host address of the idx list (one idx per nonzero). */
    const std::uint32_t *idxList = nullptr;
    /** Number of idxs in the batch. */
    std::uint64_t numIdxs = 0;
    /** Property size in bytes. */
    std::uint32_t propBytes = 0;
};

/** A send work request. */
struct IbvSendWr
{
    std::uint64_t wrId = 0;
    IbvWrOpcode opcode = IbvWrOpcode::Rig;
    IbvRigAttr rig;
};

/** A work completion. */
struct IbvWc
{
    enum class Status : std::uint32_t
    {
        Success,
        WatchdogTimeout,
    };

    std::uint64_t wrId = 0;
    Status status = Status::Success;
};

/**
 * A queue pair bound to one SNIC. postSend() programs a free client RIG
 * unit; completions appear on the CQ when the gather finishes.
 */
class RigQueuePair
{
  public:
    RigQueuePair(EventQueue &eq, Snic &snic);

    /**
     * Post @p wr. RdmaRead is modeled as a degenerate 1-idx RIG (the
     * paper notes a batch of 1 is equivalent to a vanilla read).
     * @return false when every client RIG unit is occupied.
     */
    bool postSend(const IbvSendWr &wr);

    /** Pop one completion. @return false when the CQ is empty. */
    bool pollCq(IbvWc &wc);

    /** Work requests posted but not yet completed. */
    std::size_t outstanding() const { return outstanding_; }

    /**
     * Install a completion notifier (the "CQ event channel"): invoked
     * each time a completion lands on the CQ.
     */
    void
    setCompletionHandler(std::function<void()> fn)
    {
        onCompletion_ = std::move(fn);
    }

  private:
    std::function<void()> onCompletion_;
    EventQueue &eq_;
    Snic &snic_;
    std::vector<bool> unitReserved_;
    std::deque<IbvWc> cq_;
    std::size_t outstanding_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_HOST_VERBS_HH
