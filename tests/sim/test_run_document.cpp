/**
 * @file
 * The collector lifecycle shared by the stats, telemetry and spans
 * documents (sim/run_document.hh), run once per document: probe-open
 * failure, absorb order and gather<N> numbering, the written file's
 * schema, and reset.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/json_lite.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"

using namespace netsparse;

// Outside the anonymous namespace so ctest names read
// "RunDocumentTest.<test><StatsDocument>".
struct StatsDocument
{
    using Doc = StatsExport;
    static constexpr const char *schema = "netsparse-stats-v1";
};

struct TelemetryDocument
{
    using Doc = TelemetrySink;
    static constexpr const char *schema = "netsparse-telemetry-v1";
};

struct SpansDocument
{
    using Doc = SpanSink;
    static constexpr const char *schema = "netsparse-spans-v1";
};

namespace {

template <typename T>
class RunDocumentTest : public ::testing::Test
{
  protected:
    /** A per-document temp path (ctest runs the tests concurrently). */
    std::string
    tempPath(const char *tag) const
    {
        return std::string(::testing::TempDir()) + "netsparse_" +
               T::schema + "_" + tag + ".json";
    }

    static std::string
    slurp(const std::string &path)
    {
        std::ifstream in(path);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    }
};

using Documents =
    ::testing::Types<StatsDocument, TelemetryDocument, SpansDocument>;
TYPED_TEST_SUITE(RunDocumentTest, Documents);

} // namespace

TYPED_TEST(RunDocumentTest, PathInMissingDirectoryLeavesCollectionOff)
{
    typename TypeParam::Doc doc;
    EXPECT_FALSE(doc.setOutputPath(this->tempPath("no-such-dir/out")));
    EXPECT_FALSE(doc.enabled());
}

TYPED_TEST(RunDocumentTest, AbsorbNumbersUnlabeledRunsByFinalPosition)
{
    typename TypeParam::Doc merged, worker;
    merged.setCollect(true);
    worker.setCollect(true);
    merged.beginRun();
    merged.beginRun("warmup");
    worker.beginRun();
    worker.beginRun();
    merged.absorb(std::move(worker));
    EXPECT_EQ(merged.numRuns(), 4u);
    EXPECT_EQ(worker.numRuns(), 0u);
    EXPECT_TRUE(worker.enabled());

    // Labels come from the final document position, so a parallel
    // sweep's merged document matches a sequential one.
    jsonlite::Value doc = jsonlite::parse(merged.toJson());
    const jsonlite::Value &runs = doc.at("runs");
    ASSERT_EQ(runs.array.size(), 4u);
    const char *labels[] = {"gather0", "warmup", "gather2", "gather3"};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(runs.at(i).at("run").number, static_cast<double>(i));
        EXPECT_EQ(runs.at(i).at("label").string, labels[i]);
    }
}

TYPED_TEST(RunDocumentTest, WriteFileCarriesTheSchemaAndResetDisables)
{
    const std::string path = this->tempPath("write");
    typename TypeParam::Doc doc;
    ASSERT_TRUE(doc.setOutputPath(path));
    EXPECT_TRUE(doc.enabled());
    doc.beginRun("only");
    doc.writeFile();

    jsonlite::Value parsed = jsonlite::parse(this->slurp(path));
    EXPECT_EQ(parsed.at("schema").string, TypeParam::schema);
    ASSERT_EQ(parsed.at("runs").array.size(), 1u);
    EXPECT_EQ(parsed.at("runs").at(0).at("label").string, "only");

    doc.reset();
    EXPECT_FALSE(doc.enabled());
    EXPECT_EQ(doc.numRuns(), 0u);
    std::remove(path.c_str());
}
