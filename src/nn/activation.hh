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

/** applyActivationInPlace over n contiguous values (a row range). */
void applyActivationInPlace(Activation act, double *values, size_t n);

/**
 * Elementwise derivative evaluated from the *pre-activation* values.
 *
 * For ReLU this is 1 where input > 0; the subgradient at exactly 0 is
 * taken as 0, matching the common convention.
 */
Matrix activationDerivative(Activation act, const Matrix &pre_activation);

/**
 * The backward pass's pre-activation gradient over n contiguous
 * values: grad_pre[i] = derivative * grad_output[i], the derivative
 * taken from the activation's *output*, so the dense layer needs no
 * copy of the pre-activations. grad_pre may be grad_output (in place).
 * The derivative is bitwise that of activationDerivative at the
 * pre-activations for all four functions: ReLU's output is > 0 exactly
 * where its input is, and sigmoid and tanh derive from the very value
 * the forward expression produced.
 */
void preActivationGradient(Activation act, const double *output,
                           const double *grad_output, double *grad_pre,
                           size_t n);

/** Scalar forms (used by the streaming predictors and tests). */
double activate(Activation act, double x);
double activateDerivative(Activation act, double x);

} // namespace nn
} // namespace geo

#endif // GEO_NN_ACTIVATION_HH
