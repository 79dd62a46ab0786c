/**
 * @file
 * Oracle over the committed reference artifacts: every document in
 * tests/data and runs/ must read back through readCampaignJson and
 * re-serialize through writeCampaignJson to exactly the bytes on
 * disk. A reader/writer change that drops, reorders or re-spells a
 * field, or a reader check that rejects a document the program itself
 * wrote, fails here.
 *
 * The repository root arrives via the NOCALERT_SOURCE_DIR compile
 * definition.
 */

#include "fault/serialize.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#ifndef NOCALERT_SOURCE_DIR
#error "NOCALERT_SOURCE_DIR must point at the repository root"
#endif

namespace nocalert::fault {
namespace {

class CommittedArtifact : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CommittedArtifact, RewritesByteIdentically)
{
    const std::string path =
        std::string(NOCALERT_SOURCE_DIR) + "/" + GetParam();
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file) << "cannot open " << path;
    std::ostringstream text;
    text << file.rdbuf();

    std::string error;
    const auto result = readCampaignJson(text.str(), &error);
    ASSERT_TRUE(result.has_value()) << path << ": " << error;
    EXPECT_EQ(writeCampaignJson(*result), text.str()) << path;
}

INSTANTIATE_TEST_SUITE_P(
    Reference, CommittedArtifact,
    ::testing::Values("tests/data/campaign_4x4_exhaustive.json",
                      "tests/data/campaign_4x4_phased.json",
                      "tests/data/campaign_4x4_trace.json",
                      "runs/e16_stationary.json", "runs/e16_phased.json",
                      "runs/e16_bursty.json"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        // "runs/e16_phased.json" -> "e16_phased".
        std::string name = info.param;
        name = name.substr(name.rfind('/') + 1);
        return name.substr(0, name.find('.'));
    });

} // namespace
} // namespace nocalert::fault
