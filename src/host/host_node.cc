#include "host/host_node.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace netsparse {

HostNode::HostNode(EventQueue &eq, HostConfig cfg, Snic &snic,
                   std::vector<std::uint32_t> idx_stream,
                   std::uint32_t prop_bytes)
    : eq_(eq), cfg_(cfg), snic_(snic), stream_(std::move(idx_stream)),
      propBytes_(prop_bytes), qp_(eq, snic)
{
    ns_assert(&eq_ == &snic_.eventQueue(),
              "host and its SNIC must share an event queue; the shard "
              "partition is rack-granular exactly so this pair stays "
              "together");
    qp_.setCompletionHandler([this] { drainCq(); });
    if (cfg_.batchSize == 0) {
        std::uint64_t per_unit =
            stream_.size() / (2ull * std::max(1u, snic_.numClientUnits()));
        cfg_.batchSize = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
            per_unit, cfg_.autoBatchMin, kAutoBatchMax));
    }
}

void
HostNode::start()
{
    if (stream_.empty()) {
        done_ = true;
        finishTick_ = eq_.now();
        return;
    }
    pump();
}

void
HostNode::pump()
{
    // The single control core issues at most one command per overhead
    // window; model it as a self-rescheduling issue loop.
    if (issueScheduled_ || done_)
        return;
    if (nextOffset_ >= stream_.size() && retryQueue_.empty())
        return;

    issueScheduled_ = true;
    Tick start = std::max(eq_.now(), coreFreeAt_);
    coreFreeAt_ = start + kCommandIssueOverhead;
    eq_.schedule(coreFreeAt_, [this] {
        issueScheduled_ = false;

        // Failed batches are re-posted before fresh work: their idxs
        // gate the kernel's completion just the same, and draining them
        // first bounds how long a retried batch can starve.
        InflightBatch batch;
        bool fromRetry = !retryQueue_.empty();
        if (fromRetry) {
            batch = retryQueue_.front();
        } else if (nextOffset_ < stream_.size()) {
            batch.offset = nextOffset_;
            batch.count = std::min<std::size_t>(
                cfg_.batchSize, stream_.size() - nextOffset_);
        } else {
            return;
        }

        IbvSendWr wr;
        wr.wrId = nextWrId_++;
        wr.opcode = IbvWrOpcode::Rig;
        wr.rig.idxList = stream_.data() + batch.offset;
        wr.rig.numIdxs = batch.count;
        wr.rig.propBytes = propBytes_;

        if (qp_.postSend(wr)) {
            ++commandsIssued_;
            if (fromRetry)
                retryQueue_.pop_front();
            else
                nextOffset_ += batch.count;
            inflightBatches_.push_back({wr.wrId, batch});
            pump(); // keep additional free units fed
        }
        // When no unit was free, a completion will re-invoke pump().
        drainCq();
    });
}

void
HostNode::drainCq()
{
    IbvWc wc;
    bool completed = false;
    while (qp_.pollCq(wc)) {
        completed = true;
        auto it = std::find_if(
            inflightBatches_.begin(), inflightBatches_.end(),
            [&](const InflightEntry &e) { return e.wrId == wc.wrId; });
        if (wc.status != IbvWc::Status::Success) {
            ++failures_;
            if (it != inflightBatches_.end()) {
                InflightBatch batch = it->batch;
                if (batch.attempts < kCommandRetries) {
                    // Retry-after-watchdog: re-post the whole batch.
                    // The SNIC discarded its partial results; filter
                    // and cache state make the redo cheaper.
                    ++batch.attempts;
                    ++commandRetries_;
                    retryQueue_.push_back(batch);
                } else {
                    ++permanentFailures_;
                }
            }
        }
        if (it != inflightBatches_.end())
            inflightBatches_.erase(it);
    }
    if (completed && cfg_.policy == BatchPolicy::Adaptive &&
        nextOffset_ < stream_.size()) {
        // AIMD (see HostConfig::policy): idle units mean the split is
        // too coarse; a saturated SNIC can afford coarser commands.
        std::size_t units = snic_.numClientUnits();
        std::size_t idle = units - qp_.outstanding();
        if (idle > units / 2) {
            cfg_.batchSize =
                std::max(cfg_.autoBatchMin, cfg_.batchSize / 2);
        } else {
            cfg_.batchSize = std::min(kAutoBatchMax,
                                      cfg_.batchSize +
                                          cfg_.batchSize / 4);
        }
    }
    if (nextOffset_ >= stream_.size() && retryQueue_.empty() &&
        qp_.outstanding() == 0) {
        if (!done_) {
            done_ = true;
            finishTick_ = eq_.now();
        }
        return;
    }
    pump();
}

} // namespace netsparse
