/**
 * @file
 * Loss functions. The DRL engine trains throughput regression with MSE.
 */

#ifndef GEO_NN_LOSS_HH
#define GEO_NN_LOSS_HH

#include "nn/matrix.hh"

namespace geo {
namespace nn {

/**
 * Mean squared error over all elements of a batch.
 */
class MseLoss
{
  public:
    /** Loss value: mean((pred - target)^2). */
    static double value(const Matrix &predictions, const Matrix &targets);

    /** Gradient of the loss with respect to the predictions. */
    static Matrix gradient(const Matrix &predictions, const Matrix &targets);

    /** Rows [begin, end) of gradient() into `out`, which already has
     *  the predictions' shape: the training hot path, one row range
     *  per team member. The scale is the whole batch's. */
    static void gradientInto(const Matrix &predictions,
                             const Matrix &targets, Matrix &out,
                             size_t begin, size_t end);
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_LOSS_HH
