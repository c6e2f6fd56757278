/**
 * @file
 * Tests for model weight serialization.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
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

// Every weight prints as a precision-17 stream (printf "%.17g") prints
// it, whatever its class: the text is the geo-ckpt-1 contract.
TEST(Serialize, WeightsPrintAsPrecision17Stream)
{
    Rng rng(105);
    Sequential model = buildModel(1, 6, rng);
    std::mt19937_64 gen(106);
    const double specials[] = {0.0,
                               -0.0,
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::min(),
                               std::numeric_limits<double>::max(),
                               -2.2250738585072009e-308,
                               0.1,
                               1e22,
                               123456789.0};
    size_t i = 0;
    for (Matrix *p : model.parameters()) {
        for (double &v : p->data()) {
            if (i < std::size(specials)) {
                v = specials[i];
            } else {
                uint64_t bits = gen();
                if (i % 3 == 0)
                    bits &= 0x800FFFFFFFFFFFFFull; // subnormal
                std::memcpy(&v, &bits, sizeof v);
            }
            ++i;
        }
    }

    std::ostringstream os;
    ASSERT_TRUE(saveWeights(model, os));
    std::istringstream is(os.str());
    std::string line;
    for (int header = 0; header < 3; ++header)
        ASSERT_TRUE(std::getline(is, line));
    for (const Matrix *p : model.parameters()) {
        std::ostringstream want;
        want.precision(17);
        want << p->rows() << ' ' << p->cols();
        for (double v : p->data())
            want << ' ' << v;
        ASSERT_TRUE(std::getline(is, line));
        EXPECT_EQ(line, want.str());
    }
    EXPECT_FALSE(std::getline(is, line)) << "trailing text: " << line;
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
