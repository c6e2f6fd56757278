/**
 * @file
 * The 23 candidate architectures of the paper's Table I.
 *
 * Z is the number of performance metrics describing one access (6 for
 * the BELLE II experiment, 13 for the CERN EOS trace). Dense-only models
 * consume the Z features of the current access; models with a recurrent
 * first layer consume a window of `timesteps` past accesses (Z features
 * each), matching the Keras sequence-input convention.
 *
 * Two Table I entries are ambiguous in the published text (models 8/9
 * and 10/11 print identical layer lists but report different results);
 * we resolve them by depth so that the reported training-time ordering
 * holds, and document this in DESIGN.md.
 */

#ifndef GEO_NN_MODEL_ZOO_HH
#define GEO_NN_MODEL_ZOO_HH

#include <string>
#include <vector>

#include "nn/sequential.hh"

namespace geo {

class Rng;

namespace nn {

/** Number of architectures in Table I. */
constexpr int kModelZooSize = 23;

/** Default recurrent window length (accesses per sequence). */
constexpr size_t kDefaultTimesteps = 16;

/** Description of one zoo entry. */
struct ModelSpec
{
    int number = 0;            ///< 1-based Table I model number
    std::string components;    ///< layer list in the paper's notation
    bool recurrent = false;    ///< first layer is LSTM/GRU/SimpleRNN
};

/** Static description of model `number` (1..23) for feature width z. */
ModelSpec modelSpec(int number, size_t z);

/** All 23 specs. */
std::vector<ModelSpec> allModelSpecs(size_t z);

/**
 * Instantiate Table I model `number`.
 *
 * @param number 1..23.
 * @param z features per access.
 * @param rng weight initialization source.
 * @param timesteps window length for recurrent first layers.
 */
Sequential buildModel(int number, size_t z, Rng &rng,
                      size_t timesteps = kDefaultTimesteps);

} // namespace nn
} // namespace geo

#endif // GEO_NN_MODEL_ZOO_HH
