/**
 * @file
 * Tests for model weight serialization.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "nn/model_zoo.hh"
#include "nn/serialize.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

TEST(Serialize, RoundTripPreservesPredictions)
{
    Rng rng1(91), rng2(92);
    Sequential original = buildModel(1, 6, rng1);
    Sequential restored = buildModel(1, 6, rng2); // different init

    std::stringstream buffer;
    ASSERT_TRUE(saveWeights(original, buffer));
    ASSERT_TRUE(loadWeights(restored, buffer));

    Matrix x(4, 6);
    Rng rng3(93);
    x.fillNormal(rng3, 1.0);
    Matrix y1 = original.predict(x);
    Matrix y2 = restored.predict(x);
    for (size_t i = 0; i < y1.size(); ++i)
        EXPECT_DOUBLE_EQ(y1.data()[i], y2.data()[i]);
}

TEST(Serialize, RecurrentModelRoundTrips)
{
    Rng rng1(94), rng2(95);
    Sequential original = buildModel(12, 6, rng1, 4); // LSTM front
    Sequential restored = buildModel(12, 6, rng2, 4);

    std::stringstream buffer;
    ASSERT_TRUE(saveWeights(original, buffer));
    ASSERT_TRUE(loadWeights(restored, buffer));

    Matrix x(2, original.inputSize());
    Rng rng3(96);
    x.fillNormal(rng3, 1.0);
    Matrix y1 = original.predict(x);
    Matrix y2 = restored.predict(x);
    for (size_t i = 0; i < y1.size(); ++i)
        EXPECT_DOUBLE_EQ(y1.data()[i], y2.data()[i]);
}

TEST(Serialize, TopologyMismatchRejected)
{
    Rng rng(97);
    Sequential model1 = buildModel(1, 6, rng);
    Sequential model4 = buildModel(4, 6, rng);
    std::stringstream buffer;
    ASSERT_TRUE(saveWeights(model1, buffer));
    EXPECT_FALSE(loadWeights(model4, buffer));
}

TEST(Serialize, GarbageRejected)
{
    Rng rng(98);
    Sequential model = buildModel(1, 6, rng);
    std::stringstream buffer("not a checkpoint");
    EXPECT_FALSE(loadWeights(model, buffer));
}

TEST(Serialize, FileRoundTrip)
{
    Rng rng1(99), rng2(100);
    Sequential original = buildModel(4, 6, rng1);
    Sequential restored = buildModel(4, 6, rng2);
    std::string path =
        testing::TempDir() + "/geomancy_serialize_test.weights";
    ASSERT_TRUE(saveWeightsFile(original, path));
    std::ifstream is(path);
    ASSERT_TRUE(loadWeights(restored, is));
    Matrix x(1, 6, 0.5);
    EXPECT_DOUBLE_EQ(original.predict(x).at(0, 0),
                     restored.predict(x).at(0, 0));
    std::remove(path.c_str());
}

TEST(Serialize, AtomicFileWriteLeavesNoResidue)
{
    // saveWeightsFile goes through the temp-file + rename path: after
    // an overwrite the directory must hold exactly the weights file,
    // and the previous contents are fully replaced.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "geo_serialize_atomic";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = (dir / "model.weights").string();

    Rng rng1(102), rng2(103), rng3(104);
    Sequential first = buildModel(1, 6, rng1);
    Sequential second = buildModel(1, 6, rng2);
    ASSERT_TRUE(saveWeightsFile(first, path));
    ASSERT_TRUE(saveWeightsFile(second, path)); // overwrite

    size_t entries = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u); // no .tmp.* files left behind

    Sequential restored = buildModel(1, 6, rng3);
    std::ifstream is(path);
    ASSERT_TRUE(loadWeights(restored, is));
    Matrix x(1, 6, 0.5);
    EXPECT_DOUBLE_EQ(restored.predict(x).at(0, 0),
                     second.predict(x).at(0, 0));
    fs::remove_all(dir);
}

TEST(Serialize, MissingFileFails)
{
    // The file cannot be created: its directory does not exist.
    Rng rng(101);
    Sequential model = buildModel(1, 6, rng);
    EXPECT_FALSE(saveWeightsFile(model, "/nonexistent/path.weights"));
}

} // namespace
} // namespace nn
} // namespace geo
