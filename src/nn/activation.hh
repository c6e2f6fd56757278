/**
 * @file
 * Activation functions for the neural-network layers.
 *
 * The paper's model zoo (Table I) uses ReLU and Linear; the recurrent
 * gates additionally need Sigmoid, and Tanh is provided for completeness
 * and ablations.
 */

#ifndef GEO_NN_ACTIVATION_HH
#define GEO_NN_ACTIVATION_HH

#include <string>

#include "nn/matrix.hh"

namespace geo {
namespace nn {

/** Supported activation functions. */
enum class Activation {
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
};

/** Short lowercase name ("relu", "linear", ...). */
std::string activationName(Activation act);

/** Apply the activation in place (no temporary matrix). */
void applyActivationInPlace(Activation act, Matrix &values);

/**
 * Elementwise derivative evaluated from the *pre-activation* values.
 *
 * For ReLU this is 1 where input > 0; the subgradient at exactly 0 is
 * taken as 0, matching the common convention.
 */
Matrix activationDerivative(Activation act, const Matrix &pre_activation);

/** activationDerivative computed into `out` (reshaped first) — the
 *  allocation-free variant used by the training hot path. */
void activationDerivativeInto(Activation act, const Matrix &pre_activation,
                              Matrix &out);

/** Scalar forms (used by the streaming predictors and tests). */
double activate(Activation act, double x);
double activateDerivative(Activation act, double x);

} // namespace nn
} // namespace geo

#endif // GEO_NN_ACTIVATION_HH
