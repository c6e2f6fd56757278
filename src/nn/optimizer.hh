/**
 * @file
 * Gradient-descent optimizer.
 *
 * The paper trains all Table I models with plain SGD (it reports that
 * Adam gave worse relative error on this problem), so SGD is the one
 * optimizer the stack carries.
 */

#ifndef GEO_NN_OPTIMIZER_HH
#define GEO_NN_OPTIMIZER_HH

#include <vector>

#include "nn/matrix.hh"
#include "util/state_io.hh"

namespace geo {
namespace nn {

/**
 * Plain stochastic gradient descent with optional gradient clipping.
 *
 * Clipping (by global norm) keeps the ReLU recurrent models of Table I
 * from diverging instantly; models that still diverge are reported as
 * "Diverged", as in the paper.
 */
class SgdOptimizer
{
  public:
    explicit SgdOptimizer(double lr = 0.01, double clip_norm = 0.0);

    /**
     * Apply one update step.
     *
     * @param params parameter tensors (updated in place).
     * @param grads gradient tensors, index-aligned with params.
     */
    void step(const std::vector<Matrix *> &params,
              const std::vector<Matrix *> &grads);

    /**
     * step() in pieces, for a team that splits it (Sequential::train):
     * when clips(), each gradient's Matrix::norm(); then clipScale()
     * of those norms in tensor order; then updateRange() over every
     * tensor's elements. Any split of the ranges gives step()'s bits.
     */
    bool clips() const { return clipNorm_ > 0.0; }

    /** The factor every gradient is scaled by, from each tensor's
     *  norm (read only when clips()). */
    double clipScale(const double *norms, size_t count) const;

    /** Elements [begin, end) of one tensor's update: p -= lr*scale*g. */
    void updateRange(Matrix &param, const Matrix &grad, double scale,
                     size_t begin, size_t end) const;

    /** Serialize the learning rate (`opt.lr`) for checkpointing. */
    void saveState(util::StateWriter &w) const;

    /** Restore state written by saveState. */
    void loadState(util::StateReader &r);

  private:
    double lr_;
    double clipNorm_;
    std::vector<double> norms_; ///< step()'s per-tensor norms
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_OPTIMIZER_HH
