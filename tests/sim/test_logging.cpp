/** @file Tests for the logging/error helpers. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/logging.hh"

using namespace netsparse;

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(ns_panic("simulator bug: ", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(ns_fatal("user error: ", "bad config"),
                 std::runtime_error);
    EXPECT_THROW(ns_fatal("user error"), FatalError);
}

TEST(Logging, ParseUintIsWholeBase10AndRangeChecked)
{
    EXPECT_EQ(parseUint("--n", "010"), 10u);
    EXPECT_EQ(parseUint("--n", "18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseUint("--n", "7", 7, 7), 7u);
    for (const char *bad : {"", "8abc", "-4", " 5", "+5", "0x10",
                            "18446744073709551616"})
        EXPECT_THROW(parseUint("--n", bad), FatalError) << bad;
    EXPECT_THROW(parseUint("--n", "1", 2), FatalError);
    try {
        parseUint("--nodes", "4294967296", 0, UINT32_MAX);
        FAIL() << "an out-of-range value was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "--nodes: expected an integer in [0, 4294967295], "
                      "got '4294967296'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Logging, ParseNumberIsWholeAndFinite)
{
    EXPECT_DOUBLE_EQ(parseNumber("--s", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(parseNumber("--s", "0"), 0.0);
    EXPECT_THROW(parseNumber("--s", "0", true), FatalError);
    for (const char *bad : {"", "0.05x", "-1", "inf", "nan", "1e400",
                            " 0.05", "+0.05", "0x1p-4"})
        EXPECT_THROW(parseNumber("--s", bad), FatalError) << bad;
}

TEST(Logging, PanicMessageCarriesFormattedArgs)
{
    try {
        ns_panic("value was ", 7, ", expected ", 8);
        FAIL() << "panic did not throw";
    } catch (const std::logic_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("value was 7, expected 8"), std::string::npos);
    }
}

TEST(Logging, AssertPassesAndFails)
{
    EXPECT_NO_THROW(ns_assert(1 + 1 == 2, "math works"));
    EXPECT_THROW(ns_assert(1 + 1 == 3, "math broke at ", __LINE__),
                 std::logic_error);
}

TEST(Logging, VerboseToggle)
{
    bool before = verbose();
    setVerbose(false);
    EXPECT_FALSE(verbose());
    ns_inform("this line is suppressed");
    setVerbose(true);
    EXPECT_TRUE(verbose());
    setVerbose(before);
}
