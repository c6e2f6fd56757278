/**
 * @file
 * Model weight serialization.
 *
 * Weights are written as a versioned text format with a topology
 * fingerprint; loading requires a model of identical topology (build it
 * from the zoo, then load). This matches how Geomancy checkpoints its
 * DRL engine between retraining cycles.
 */

#ifndef GEO_NN_SERIALIZE_HH
#define GEO_NN_SERIALIZE_HH

#include <istream>
#include <ostream>
#include <string>

#include "nn/sequential.hh"

namespace geo {
namespace nn {

/** Write all parameters of `model` to `os`. Returns false on I/O error. */
bool saveWeights(Sequential &model, std::ostream &os);

/**
 * Load parameters into `model`.
 *
 * @return false if the stream is malformed or the topology fingerprint
 *         does not match the model; the model is then unchanged.
 */
bool loadWeights(Sequential &model, std::istream &is);

/** Save to a file path. */
bool saveWeightsFile(Sequential &model, const std::string &path);

} // namespace nn
} // namespace geo

#endif // GEO_NN_SERIALIZE_HH
