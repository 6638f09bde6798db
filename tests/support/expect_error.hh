/**
 * @file
 * EXPECT_VPR_ERROR(statement, pattern): expect @p statement to throw a
 * vpr::Error whose message contains a match for the POSIX extended
 * regular expression @p pattern (the dialect EXPECT_EXIT used). User
 * errors throw instead of exiting, so these checks run in the test
 * process: nothing forks, and the sanitizers see every path.
 */

#ifndef VPR_TESTS_SUPPORT_EXPECT_ERROR_HH
#define VPR_TESTS_SUPPORT_EXPECT_ERROR_HH

#include <gtest/gtest.h>
#include <regex.h>

#include <string>

#include "common/logging.hh"

namespace vpr::test
{

inline bool
matchesPattern(const char *text, const std::string &pattern)
{
    regex_t re;
    if (regcomp(&re, pattern.c_str(), REG_EXTENDED | REG_NOSUB) != 0)
        return false;
    const bool hit = regexec(&re, text, 0, nullptr, 0) == 0;
    regfree(&re);
    return hit;
}

template <typename Body>
::testing::AssertionResult
throwsError(Body &&body, const std::string &pattern)
{
    try {
        body();
    } catch (const Error &e) {
        if (matchesPattern(e.what(), pattern))
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "vpr::Error \"" << e.what() << "\" does not match /"
               << pattern << "/";
    }
    return ::testing::AssertionFailure() << "no vpr::Error thrown";
}

} // namespace vpr::test

#define EXPECT_VPR_ERROR(statement, pattern)                              \
    EXPECT_TRUE(::vpr::test::throwsError([&] { (void)(statement); },      \
                                         pattern))                        \
        << #statement

#endif // VPR_TESTS_SUPPORT_EXPECT_ERROR_HH
