/**
 * @file
 * runSupervised and stdio: a forked attempt inherits a copy of every
 * unflushed stdio buffer, and ends with _exit, which flushes none.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "util/supervise.hh"

namespace geo {
namespace util {
namespace {

TEST(Supervise, ChildOutputSurvivesAndParentBufferIsWrittenOnce)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("geo_supervise_" + std::to_string(::getpid()) + ".txt"))
            .string();
    FILE *out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    static char buffer[4096];
    std::setvbuf(out, buffer, _IOFBF, sizeof(buffer));

    std::fputs("header\n", out); // still buffered at the fork
    SuperviseConfig config;
    config.maxRestarts = 0;
    SuperviseResult result = runSupervised(
        [out](int, bool) {
            std::fputs("attempt\n", out); // buffered at the child's exit
            return 0;
        },
        config);
    std::fclose(out);

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::filesystem::remove(path);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(text.str(), "header\nattempt\n");
}

} // namespace
} // namespace util
} // namespace geo
