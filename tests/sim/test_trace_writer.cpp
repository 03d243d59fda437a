/** @file Tests for the Chrome-trace/Perfetto event trace writer. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/json_lite.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"

using namespace netsparse;

namespace {

/** A temp path that cleans up after the test. */
class TempFile
{
  public:
    explicit TempFile(const char *tag)
        : path_(std::string(::testing::TempDir()) + "netsparse_" + tag +
                ".json")
    {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(TraceWriter, OnlyTheQueuesWriterRecords)
{
    // Components reach the trace through their queue alone: a queue
    // without a writer runs no trace body, even while the thread has
    // an open writer bound.
    TempFile boundOut("trace_bound"), attachedOut("trace_attached");
    TraceWriter bound;
    ASSERT_TRUE(bound.open(boundOut.path()));
    TraceWriter::Bind bind(bound);
    EventQueue eq;
    bool ran = false;
    NS_TRACE(eq, ran = tw.enabled());
    EXPECT_FALSE(ran);

    // A writer that is not capturing attaches as null.
    TraceWriter idle;
    eq.setTrace(&idle);
    EXPECT_EQ(eq.trace(), nullptr);

    // The queue's own counter site samples every 1024th event, into
    // the attached writer only.
    TraceWriter attached;
    ASSERT_TRUE(attached.open(attachedOut.path()));
    eq.setTrace(&attached);
    for (int i = 0; i < 1024; ++i)
        eq.schedule(static_cast<Tick>(i), [] {});
    eq.run();
    NS_TRACE(eq, ran = tw.enabled());
    EXPECT_TRUE(ran);
    EXPECT_EQ(attached.eventCount(), 1u);
    EXPECT_EQ(bound.eventCount(), 0u);
    EXPECT_EQ(idle.eventCount(), 0u);
}

TEST(TraceWriter, ProducesValidChromeTraceJson)
{
    TempFile out("trace");
    TraceWriter &tw = TraceWriter::instance();
    ASSERT_TRUE(tw.open(out.path()));

    std::uint32_t a = tw.track("compA");
    std::uint32_t b = tw.track("compB");
    tw.instant(a, "ev1", 1000, traceArgs({{"bytes", 64}}));
    tw.complete(b, "span", 500, 2500, traceArgs({{"prs", 3}}));
    tw.counter(a, "depth", 2000, 7.0);
    tw.instant(b, "ev2", 1500);
    tw.close();
    ASSERT_FALSE(tw.enabled());

    jsonlite::Value doc = jsonlite::parse(slurp(out.path()));
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("traceEvents"));
    const jsonlite::Value &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    // process_name + 2 thread_name metadata + 4 events.
    int meta = 0, data = 0;
    for (const auto &e : events.array) {
        ASSERT_TRUE(e.isObject());
        ASSERT_TRUE(e.has("ph"));
        if (e.at("ph").string == "M")
            ++meta;
        else
            ++data;
    }
    EXPECT_EQ(meta, 3);
    EXPECT_EQ(data, 4);
}

TEST(TraceWriter, TimestampsAreSortedAndTickDerived)
{
    TempFile out("trace_order");
    TraceWriter &tw = TraceWriter::instance();
    ASSERT_TRUE(tw.open(out.path()));

    std::uint32_t t = tw.track("comp");
    // Emit out of timestamp order; close() must sort.
    tw.instant(t, "late", 3'000'000); // 3 us in ticks (ps)
    tw.instant(t, "early", 1'000'000);
    tw.complete(t, "span", 2'000'000, 2'500'000);
    tw.close();

    jsonlite::Value doc = jsonlite::parse(slurp(out.path()));
    double prev = -1.0;
    std::vector<std::string> order;
    for (const auto &e : doc.at("traceEvents").array) {
        if (e.at("ph").string == "M")
            continue;
        ASSERT_TRUE(e.at("ts").isNumber());
        EXPECT_GE(e.at("ts").number, prev);
        prev = e.at("ts").number;
        order.push_back(e.at("name").string);
    }
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], "early");
    EXPECT_EQ(order[1], "span");
    EXPECT_EQ(order[2], "late");
    // "ts" is microseconds: 1e6 ticks (ps) = 1 us.
    EXPECT_DOUBLE_EQ(prev, 3.0);
}

TEST(TraceWriter, CompleteEventsCarryDurations)
{
    TempFile out("trace_dur");
    TraceWriter &tw = TraceWriter::instance();
    ASSERT_TRUE(tw.open(out.path()));
    tw.complete(tw.track("comp"), "span", 0, 4'000'000,
                traceArgs({{"k", 1}}));
    tw.close();

    jsonlite::Value doc = jsonlite::parse(slurp(out.path()));
    bool found = false;
    for (const auto &e : doc.at("traceEvents").array) {
        if (e.at("ph").string != "X")
            continue;
        found = true;
        EXPECT_DOUBLE_EQ(e.at("dur").number, 4.0);
        EXPECT_DOUBLE_EQ(e.at("args").at("k").number, 1.0);
    }
    EXPECT_TRUE(found);
}

TEST(TraceWriter, ThreadNameMetadataNamesEveryTrack)
{
    TempFile out("trace_meta");
    TraceWriter &tw = TraceWriter::instance();
    ASSERT_TRUE(tw.open(out.path()));
    std::uint32_t a = tw.track("node0.snic");
    EXPECT_EQ(tw.track("node0.snic"), a); // stable on re-lookup
    tw.instant(a, "ev", 0);
    tw.instant(tw.track("tor0"), "ev", 1);
    tw.close();

    jsonlite::Value doc = jsonlite::parse(slurp(out.path()));
    std::vector<std::string> names;
    for (const auto &e : doc.at("traceEvents").array) {
        if (e.at("ph").string == "M" &&
            e.at("name").string == "thread_name")
            names.push_back(e.at("args").at("name").string);
    }
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "node0.snic");
    EXPECT_EQ(names[1], "tor0");
}

TEST(TraceWriter, ReopenStartsAFreshCapture)
{
    TempFile first("trace_first");
    TempFile second("trace_second");
    TraceWriter &tw = TraceWriter::instance();

    ASSERT_TRUE(tw.open(first.path()));
    tw.instant(tw.track("comp"), "one", 10);
    ASSERT_TRUE(tw.open(second.path())); // implicitly closes the first
    tw.instant(tw.track("comp"), "two", 20);
    tw.close();

    jsonlite::Value a = jsonlite::parse(slurp(first.path()));
    jsonlite::Value b = jsonlite::parse(slurp(second.path()));
    auto dataNames = [](const jsonlite::Value &doc) {
        std::vector<std::string> out;
        for (const auto &e : doc.at("traceEvents").array)
            if (e.at("ph").string != "M")
                out.push_back(e.at("name").string);
        return out;
    };
    EXPECT_EQ(dataNames(a), std::vector<std::string>{"one"});
    EXPECT_EQ(dataNames(b), std::vector<std::string>{"two"});
}
