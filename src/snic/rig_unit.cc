#include "snic/rig_unit.hh"

#include <algorithm>
#include <memory>

#include "net/pr_latency.hh"
#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/trace.hh"

namespace netsparse {

RigClientUnit::RigClientUnit(EventQueue &eq, const RigUnitConfig &cfg,
                             SnicContext &ctx, std::uint16_t tid)
    : eq_(eq), cfg_(cfg), ctx_(ctx), tid_(tid), clock_(cfg.clockHz),
      pending_(cfg.pendingCapacity)
{
    ns_assert(cfg_.retry.maxRetries <= 0xFF, "maxRetries ",
              cfg_.retry.maxRetries,
              " exceeds the 8-bit PropertyRequest::attempt");
}

std::uint32_t
RigClientUnit::traceTrack(TraceWriter &tw) const
{
    return tw.track(ctx_.nodeName() + ".rig" + std::to_string(tid_));
}

void
RigClientUnit::start(RigCommand cmd)
{
    ns_assert(!active_, "RIG unit ", tid_, " is busy");
    ns_assert(cmd.idxs || cmd.count == 0, "command without an idx list");
    ns_assert(cmd.onComplete, "command without a completion callback");

    active_ = true;
    cmd_ = std::move(cmd);
    nextIdx_ = 0;
    outstanding_ = 0;
    waitingForPending_ = false;
    lastWriteDone_ = eq_.now();
    ++epoch_;
    ++stats_.commands;
    // reqIds are monotonic across commands (never reset), so the live
    // command's responses are exactly those in [cmdReqIdBase_,
    // nextReqId_) - the staleness test of onResponse.
    cmdReqIdBase_ = nextReqId_;

    NS_TRACE(eq_, tw.instant(
        traceTrack(tw), "cmd.start", eq_.now(),
        traceArgs({{"idxs", static_cast<double>(cmd_.count)},
                   {"commandId",
                    static_cast<double>(cmd_.commandId)}})));

    // DMA the idx batch from host memory into the Idx Buffer. Refills
    // during processing are double-buffered and fully hidden (16 ns of
    // PCIe serialization per 4 KB vs ~465 ns to process 1024 idxs), so
    // only the initial fill delays the pipeline.
    std::uint64_t first_fill =
        std::min<std::uint64_t>(cmd_.count * 4, cfg_.idxBufferBytes);
    Tick ready = cmd_.count ? ctx_.pcie().transfer(first_fill) : eq_.now();
    scheduleChunk(ready);

    if (cfg_.watchdogTimeout > 0) {
        std::uint64_t epoch = epoch_;
        eq_.scheduleIn(cfg_.watchdogTimeout, [this, epoch] {
            if (active_ && epoch_ == epoch) {
                // The operation timed out: discard partial results and
                // report failure to the host (Section 7.1). finish()
                // resets the pending table and all per-command state.
                ++stats_.watchdogFailures;
                finish(false);
            }
        });
    }
}

void
RigClientUnit::scheduleChunk(Tick when)
{
    if (chunkScheduled_)
        return;
    chunkScheduled_ = true;
    // Epoch-guard the callback: a chunk event scheduled by a command
    // the watchdog killed must not fire into (or clear the guard flag
    // of) the next command. finish() owns the flag reset on failure.
    std::uint64_t epoch = epoch_;
    eq_.schedule(std::max(when, eq_.now()), [this, epoch] {
        if (epoch_ != epoch)
            return;
        chunkScheduled_ = false;
        processChunk();
    });
}

void
RigClientUnit::processChunk()
{
    if (!active_)
        return;

    const Tick chunk_start = eq_.now();
    RigClientStats before;
    if (eq_.trace())
        before = stats_;
    std::uint32_t consumed = 0;
    enum class Stall
    {
        None,
        Pending,
        Tx,
    } stall = Stall::None;
    // Hoist the loop invariants: the context accessors are virtual and
    // this loop runs once per nonzero of the kernel.
    const NodeId self = ctx_.selfNode();
    const Partition1D *part = ctx_.ownerPartition();
    IdxFilter &filter = ctx_.idxFilter();
    while (consumed < cfg_.chunkPerEvent && nextIdx_ < cmd_.count) {
        PropIdx idx = cmd_.idxs[nextIdx_];
        ++consumed; // one pipeline slot per examined idx

        NodeId dest = part ? part->ownerOf(static_cast<std::uint32_t>(idx))
                           : ctx_.ownerOf(idx);
        if (dest == self) {
            ++stats_.localIdxs;
            ++stats_.idxsProcessed;
            ++nextIdx_;
            continue;
        }
        if (cfg_.filterEnabled && filter.test(idx)) {
            ++stats_.filtered;
            ++stats_.idxsProcessed;
            ++nextIdx_;
            continue;
        }
        if (cfg_.coalesceEnabled && pending_.contains(idx)) {
            pending_.addWaiter(idx);
            ++stats_.coalesced;
            ++stats_.idxsProcessed;
            ++nextIdx_;
            continue;
        }
        if (pending_.full()) {
            // Stall until a response frees an entry.
            ++stats_.pendingStalls;
            NS_TRACE(eq_, tw.instant(traceTrack(tw), "stall.pending",
                                     eq_.now()));
            stall = Stall::Pending;
            break; // resumed by onResponse
        }
        if (ctx_.txBackpressured()) {
            ++stats_.txStalls;
            NS_TRACE(eq_,
                     tw.instant(traceTrack(tw), "stall.tx", eq_.now()));
            stall = Stall::Tx;
            break;
        }

        pending_.insert(idx);
        ++outstanding_;
        ++stats_.prsIssued;
        ++stats_.idxsProcessed;
        ++nextIdx_;

        std::uint32_t reqId = nextReqId_++;
        if (cfg_.retry.enabled) {
            Tick deadline = eq_.now() + cfg_.retry.timeout;
            inflight_.emplace(reqId,
                              InflightPr{idx, dest, 0, deadline, false});
            armRetryTimer(deadline);
        }
        sendReadPr(reqId, idx, dest, false);
    }

    NS_TRACE(eq_, if (consumed) tw.complete(
        traceTrack(tw), "chunk", chunk_start,
        chunk_start + clock_.cycles(consumed),
        traceArgs(
            {{"idxs", static_cast<double>(consumed)},
             {"issued", static_cast<double>(stats_.prsIssued -
                                            before.prsIssued)},
             {"filtered", static_cast<double>(stats_.filtered -
                                              before.filtered)},
             {"coalesced", static_cast<double>(stats_.coalesced -
                                               before.coalesced)}})));

    if (stall == Stall::Pending) {
        waitingForPending_ = true;
        return; // resumed by onResponse
    }
    if (stall == Stall::Tx) {
        scheduleChunk(eq_.now() + clock_.cycles(consumed) +
                      cfg_.txRetryInterval);
        return;
    }

    if (nextIdx_ < cmd_.count) {
        scheduleChunk(eq_.now() + clock_.cycles(consumed));
    } else {
        maybeComplete();
    }
}

void
RigClientUnit::onResponse(const PropertyRequest &pr)
{
    // Validate the response against the live command BEFORE touching
    // the pending table: a late response from a watchdog-failed
    // previous command must not retire a new command's entry for the
    // same idx. reqIds are monotonic and never reset, so anything
    // outside [cmdReqIdBase_, nextReqId_) belongs to a dead command.
    if (!active_ || pr.reqId < cmdReqIdBase_ || pr.reqId >= nextReqId_) {
        ++stats_.staleResponses;
        return;
    }

    std::uint32_t attempts = 0;
    if (cfg_.retry.enabled) {
        auto it = inflight_.find(pr.reqId);
        if (it == inflight_.end()) {
            // Already satisfied - the usual flip side of a retransmit
            // whose original eventually arrived. Suppress.
            ++stats_.duplicatesSuppressed;
            return;
        }
        if (pr.checksum != propertyChecksum(pr.idx, pr.tenant)) {
            // Corrupt payload: drop it and NACK-refetch from the home
            // node, bypassing the Property Cache so a poisoned entry
            // cannot serve the refetch. Counts against the budget.
            ++stats_.corruptDropped;
            NS_TRACE(eq_,
                     tw.instant(traceTrack(tw), "pr.nack", eq_.now()));
            if (it->second.attempts >= cfg_.retry.maxRetries) {
                ++stats_.retriesExhausted;
                finish(false);
                return;
            }
            ++it->second.attempts;
            ++stats_.nacks;
            it->second.bypassCache = true;
            it->second.deadline =
                eq_.now() + retryDelay(it->second.attempts);
            armRetryTimer(it->second.deadline);
            sendReadPr(pr.reqId, it->second.idx, it->second.dest, true,
                       it->second.attempts);
            return;
        }
        attempts = it->second.attempts;
        inflight_.erase(it);
    }
    // The stamps describe the accepted attempt; the reqId's other
    // attempts will never be accepted, so they leave the board too.
    PrStamps stamps;
    if (StampBoard *board = eq_.stampBoard())
        stamps = board->accept(pr, attempts);

    std::uint32_t served = pending_.complete(pr.idx);
    if (served == 0) {
        // An idx-less response (defensive: cannot happen for a
        // validated in-flight reqId); drop it.
        ++stats_.staleResponses;
        return;
    }
    ++stats_.responses;
    if (PrLatencyStats *lat = ctx_.prLatency())
        lat->record(stamps, pr, eq_.now());
    if (pr.traced) {
        if (SpanBuffer *sb = eq_.spans()) {
            std::uint64_t id = sb->idOf(pr);
            sb->record(id, SpanStage::Retire, ctx_.spanComp(), eq_.now());
            sb->retire(SpanRetire{id, stamps.issueTick, eq_.now(),
                                  pr.tenant, pr.src, pr.srcTid, pr.reqId,
                                  pr.servedByCache, attempts});
        }
    }

    if (!cfg_.retry.enabled) {
        // The lossless fabric never corrupts; anything else is a
        // simulator bug.
        ns_assert(pr.checksum == propertyChecksum(pr.idx, pr.tenant),
                  "corrupt property for idx ", pr.idx);
    }

    // Write the property to host memory and publish the Idx Filter bit
    // so other units stop requesting it.
    lastWriteDone_ =
        std::max(lastWriteDone_, ctx_.pcie().transfer(pr.payloadBytes));
    if (cfg_.filterEnabled)
        ctx_.idxFilter().set(pr.idx);

    ns_assert(outstanding_ > 0, "response with nothing outstanding");
    --outstanding_;

    if (waitingForPending_) {
        waitingForPending_ = false;
        scheduleChunk(eq_.now());
    }
    maybeComplete();
}

void
RigClientUnit::sendReadPr(std::uint32_t reqId, PropIdx idx, NodeId dest,
                          bool bypassCache, std::uint32_t attempt)
{
    PropertyRequest pr;
    pr.type = PrType::Read;
    pr.src = ctx_.selfNode();
    pr.srcTid = tid_;
    pr.tenant = ctx_.tenant();
    pr.idx = idx;
    pr.reqId = reqId;
    pr.propBytes = cmd_.propBytes;
    pr.payloadBytes = 0;
    pr.bypassCache = bypassCache;
    pr.attempt = static_cast<std::uint8_t>(attempt);
    if (StampBoard *board = eq_.stampBoard())
        board->issue(pr, eq_.now());
    if (SpanBuffer *sb = eq_.spans()) {
        // The id is a pure function of the PR's identity, so the same
        // request computes the same id (and sampling decision) on every
        // shard layout - and a retransmit reuses its original span.
        std::uint64_t id = sb->idOf(pr);
        if (sb->traces(id)) {
            pr.traced = true;
            sb->record(id,
                       attempt ? SpanStage::Retransmit : SpanStage::Issue,
                       ctx_.spanComp(), eq_.now(), 0,
                       attempt ? attempt : idx);
        }
    }
    ctx_.sendPr(std::move(pr), dest);
}

Tick
RigClientUnit::retryDelay(std::uint32_t attempts) const
{
    double scale = 1.0;
    for (std::uint32_t i = 0; i < attempts; ++i)
        scale *= cfg_.retry.backoff;
    return static_cast<Tick>(
        static_cast<double>(cfg_.retry.timeout) * scale);
}

void
RigClientUnit::armRetryTimer(Tick deadline)
{
    if (retryTimerAt_ != 0 && retryTimerAt_ <= deadline)
        return; // the armed timer already fires early enough
    retryTimerAt_ = deadline;
    std::uint64_t gen = ++retryTimerGen_;
    std::uint64_t epoch = epoch_;
    eq_.schedule(std::max(deadline, eq_.now()), [this, gen, epoch] {
        if (epoch_ != epoch || gen != retryTimerGen_ || !active_)
            return;
        checkRetransmits();
    });
}

void
RigClientUnit::checkRetransmits()
{
    retryTimerAt_ = 0;
    Tick now = eq_.now();
    // std::map iterates in reqId order, keeping retransmission order -
    // and therefore the whole downstream event stream - deterministic.
    for (auto &[reqId, entry] : inflight_) {
        if (entry.deadline > now)
            continue;
        if (entry.attempts >= cfg_.retry.maxRetries) {
            // Retry budget exhausted: give up on the command the same
            // way the watchdog would, and let the host decide.
            ++stats_.retriesExhausted;
            NS_TRACE(eq_, tw.instant(traceTrack(tw),
                                     "pr.retriesExhausted", eq_.now()));
            finish(false);
            return;
        }
        ++entry.attempts;
        entry.deadline = now + retryDelay(entry.attempts);
        ++stats_.retransmits;
        NS_TRACE(eq_,
                 tw.instant(traceTrack(tw), "pr.retransmit", eq_.now()));
        sendReadPr(reqId, entry.idx, entry.dest, entry.bypassCache,
                   entry.attempts);
    }
    // Re-arm for the earliest remaining deadline.
    Tick earliest = 0;
    for (const auto &[reqId, entry] : inflight_)
        if (earliest == 0 || entry.deadline < earliest)
            earliest = entry.deadline;
    if (earliest != 0)
        armRetryTimer(earliest);
}

void
RigClientUnit::maybeComplete()
{
    if (!active_ || nextIdx_ < cmd_.count || outstanding_ > 0)
        return;
    finish(true);
}

void
RigClientUnit::finish(bool success)
{
    NS_TRACE(eq_, tw.instant(traceTrack(tw),
                             success ? "cmd.done" : "cmd.watchdogFail",
                             eq_.now()));
    active_ = false;
    ++epoch_;
    // Leave no per-command state behind for the next command: clear the
    // issue pipeline, the reliable-transport tracking, and (on failure)
    // the pending table, whose entries will never be answered usefully.
    // Bumping epoch_ above also invalidates any still-queued chunk,
    // watchdog or retry-timer events of this command.
    outstanding_ = 0;
    waitingForPending_ = false;
    chunkScheduled_ = false;
    inflight_.clear();
    retryTimerAt_ = 0;
    ++retryTimerGen_;
    if (!success) {
        pending_.reset();
        if (StampBoard *board = eq_.stampBoard())
            board->dropClient(ctx_.tenant(), ctx_.selfNode(), tid_);
    }
    auto cb = std::move(cmd_.onComplete);
    // Completion reaches the host after the last property write lands
    // plus one PCIe crossing for the notification.
    Tick when = std::max(eq_.now(), lastWriteDone_) + ctx_.pcie().latency();
    eq_.schedule(when, [cb = std::move(cb), success] { cb(success); });
}

RigServerUnit::RigServerUnit(EventQueue &eq, const RigUnitConfig &cfg,
                             SnicContext &ctx, std::uint16_t tid)
    : eq_(eq), cfg_(cfg), ctx_(ctx), tid_(tid), clock_(cfg.clockHz)
{}

Tick
RigServerUnit::prepareRead(PropertyRequest &pr)
{
    ns_assert(pr.type == PrType::Read, "server unit got a non-read PR");
    ++stats_.readsServed;
    stats_.bytesFetched += pr.propBytes;

    // Pipelined at one PR per cycle; each PR pays the host memory and
    // PCIe fetch latency.
    Tick issue = std::max(eq_.now(), nextIssue_);
    nextIssue_ = issue + clock_.period();
    Tick fetched = std::max(
        issue, ctx_.pcie().transfer(pr.propBytes) + cfg_.serverMemLatency);

    pr.type = PrType::Response;
    pr.payloadBytes = pr.propBytes;
    pr.checksum = propertyChecksum(pr.idx, pr.tenant);
    pr.fetchTick = fetched;
    if (pr.traced)
        if (SpanBuffer *sb = eq_.spans())
            sb->record(sb->idOf(pr), SpanStage::Fetch, ctx_.spanComp(),
                       issue, fetched - issue, pr.propBytes);
    return fetched;
}

void
RigServerUnit::handleRead(PropertyRequest &&pr)
{
    Tick fetched = prepareRead(pr);
    eq_.schedule(fetched, [this, resp = std::move(pr)]() mutable {
        NodeId back = resp.src;
        ctx_.sendPr(std::move(resp), back);
    });
}

} // namespace netsparse
