#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/telemetry.hh"
#include "sim/trace.hh"

namespace netsparse {

namespace {

/** Dispatch events between event-queue trace samples (keeps traces of
 *  multi-million-event runs bounded while still showing queue depth). */
constexpr std::uint64_t traceSampleInterval = 1024;

} // namespace

EventQueue::~EventQueue()
{
    // Destroy pending closures without invoking them (a closure may own
    // a Packet or a completion callback with non-trivial state).
    auto drop = [this](const Ref &r) {
        EventPool::Slot &s = pool_.slot(r.slot);
        s.fn(s.buf, detail::EventOp::Drop);
    };
    for (const Ref &r : cur_)
        drop(r);
    for (const auto &bucket : ring_)
        for (const Ref &r : bucket)
            drop(r);
    for (const Ref &r : far_)
        drop(r);
}

void
EventQueue::enqueue(Tick when, std::uint64_t key, std::uint32_t slot)
{
    Ref r{when, key, slot};
    std::uint64_t b = bucketOf(when);
    if (b <= cursor_) {
        // The active bucket, or behind an already-rotated cursor (the
        // cursor can sit ahead of now() after a far-heap jump); either
        // way it belongs to the dispatch heap.
        cur_.push_back(r);
        std::push_heap(cur_.begin(), cur_.end(), Later{});
    } else if (b - cursor_ < numBuckets) {
        ring_[b % numBuckets].push_back(r);
        ++nearSize_;
    } else {
        far_.push_back(r);
        std::push_heap(far_.begin(), far_.end(), Later{});
    }
    ++size_;
}

void
EventQueue::pullFar()
{
    while (!far_.empty() &&
           bucketOf(far_.front().when) - cursor_ < numBuckets) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        Ref r = far_.back();
        far_.pop_back();
        std::uint64_t b = bucketOf(r.when);
        if (b <= cursor_) {
            cur_.push_back(r);
            std::push_heap(cur_.begin(), cur_.end(), Later{});
        } else {
            ring_[b % numBuckets].push_back(r);
            ++nearSize_;
        }
    }
}

bool
EventQueue::advance()
{
    if (!cur_.empty())
        return true;
    if (nearSize_ > 0) {
        // Rotate to the next occupied bucket. Each occupied slot maps to
        // a unique absolute bucket inside the window, so the first
        // non-empty slot is the earliest.
        for (std::size_t i = 1; i < numBuckets; ++i) {
            auto &bucket = ring_[(cursor_ + i) % numBuckets];
            if (bucket.empty())
                continue;
            cursor_ += i;
            nearSize_ -= bucket.size();
            cur_.swap(bucket); // recycles vector capacity both ways
            std::make_heap(cur_.begin(), cur_.end(), Later{});
            pullFar();
            return true;
        }
        ns_panic("near-event accounting out of sync");
    }
    if (!far_.empty()) {
        // The wheel is empty: jump the window to the far heap's head.
        cursor_ = bucketOf(far_.front().when);
        pullFar(); // lands the head (bucket == cursor_) in cur_
        return true;
    }
    return false;
}

Tick
EventQueue::nextEventTick() const
{
    if (size_ == 0)
        return maxTick;
    if (!cur_.empty())
        return cur_.front().when;
    if (nearSize_ > 0) {
        for (std::size_t i = 1; i < numBuckets; ++i) {
            const auto &bucket = ring_[(cursor_ + i) % numBuckets];
            if (bucket.empty())
                continue;
            Tick best = maxTick;
            for (const Ref &r : bucket)
                best = std::min(best, r.when);
            return best;
        }
    }
    return far_.front().when;
}

void
EventQueue::setTrace(TraceWriter *trace)
{
    trace_ = trace && trace->enabled() ? trace : nullptr;
}

bool
EventQueue::step()
{
    if (!advance())
        return false;
    if (cur_.front().when >= probeNext_) {
        // Telemetry boundary: the event about to run is the first at
        // or past it, so the state right now is exactly the product
        // of every event with an earlier tick - sample before
        // executing (see sim/telemetry.hh for why this definition is
        // shard-count-invariant).
        probeNext_ = probe_->onBoundary(cur_.front().when);
    }
    std::pop_heap(cur_.begin(), cur_.end(), Later{});
    Ref r = cur_.back();
    cur_.pop_back();
    now_ = r.when;
    --size_;
    ++executed_;
    if (executed_ % traceSampleInterval == 0) {
        NS_TRACE(*this, tw.counter(tw.track("sim.eq"), "pendingEvents",
                                   now_, static_cast<double>(size_)));
    }
    EventPool::Slot &s = pool_.slot(r.slot);
    s.fn(s.buf, detail::EventOp::Run);
    pool_.release(r.slot);
    return true;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return now_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (advance() && cur_.front().when <= limit)
        step();
    return now_;
}

void
EventQueue::fastForward(Tick t)
{
    ns_assert(t >= now_, "fastForward into the past: t=", t, " now=",
              now_);
    ns_assert(empty() || nextEventTick() >= t,
              "fastForward would skip pending events");
    now_ = t;
}

} // namespace netsparse
