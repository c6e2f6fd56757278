#include "nn/gru_layer.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/random.hh"

namespace geo {
namespace nn {

GruLayer::GruLayer(size_t features_per_step, size_t timesteps,
                   size_t hidden_size, Activation act, Rng &rng)
    : features_(features_per_step), timesteps_(timesteps),
      hidden_(hidden_size), act_(act)
{
    if (features_ == 0 || timesteps_ == 0 || hidden_ == 0)
        panic("GruLayer: zero dimension (%zu, %zu, %zu)", features_,
              timesteps_, hidden_);
    for (Matrix *w : {&wu_, &wr_, &wn_}) {
        *w = Matrix(features_, hidden_);
        w->fillXavierUniform(rng, features_, hidden_);
    }
    for (Matrix *r : {&ru_, &rr_, &rn_}) {
        *r = Matrix(hidden_, hidden_);
        r->fillNormal(rng, 0.5 / std::sqrt(static_cast<double>(hidden_)));
    }
    for (Matrix *b : {&bu_, &br_, &bn_})
        *b = Matrix(1, hidden_);
    for (Matrix *g : {&gradWu_, &gradWr_, &gradWn_})
        *g = Matrix(features_, hidden_);
    for (Matrix *g : {&gradRu_, &gradRr_, &gradRn_})
        *g = Matrix(hidden_, hidden_);
    for (Matrix *g : {&gradBu_, &gradBr_, &gradBn_})
        *g = Matrix(1, hidden_);
}

void
GruLayer::forwardInto(const Matrix &input, bool training, Matrix &out)
{
    if (input.cols() != inputSize())
        panic("GruLayer::forward: input width %zu != %zu", input.cols(),
              inputSize());
    size_t batch = input.rows();
    Matrix h(batch, hidden_);
    if (training) {
        cache_.clear();
        cache_.reserve(timesteps_);
    }
    for (size_t t = 0; t < timesteps_; ++t) {
        Matrix xt = input.colRange(t * features_, (t + 1) * features_);
        // Gate pre-activations share one scratch matrix for the
        // recurrent product; bias and activation are applied in place.
        Matrix u = xt.matmul(wu_);
        h.matmulInto(ru_, gateScratch_);
        u += gateScratch_;
        u.addRowBroadcastInPlace(bu_);
        applyActivationInPlace(Activation::Sigmoid, u);

        Matrix r = xt.matmul(wr_);
        h.matmulInto(rr_, gateScratch_);
        r += gateScratch_;
        r.addRowBroadcastInPlace(br_);
        applyActivationInPlace(Activation::Sigmoid, r);

        Matrix rh = r.hadamard(h);
        Matrix n_pre = xt.matmul(wn_);
        rh.matmulInto(rn_, gateScratch_);
        n_pre += gateScratch_;
        n_pre.addRowBroadcastInPlace(bn_);
        Matrix n = n_pre;
        applyActivationInPlace(act_, n);

        // h_t = (1 - u) . h_prev + u . n, fused into one pass.
        Matrix h_next(batch, hidden_);
        for (size_t idx = 0; idx < h_next.size(); ++idx) {
            double uv = u.data()[idx];
            h_next.data()[idx] =
                (1.0 - uv) * h.data()[idx] + uv * n.data()[idx];
        }
        if (training) {
            StepCache sc;
            sc.x = std::move(xt);
            sc.hPrev = h;
            sc.u = std::move(u);
            sc.r = std::move(r);
            sc.n = std::move(n);
            sc.nPre = std::move(n_pre);
            sc.rh = std::move(rh);
            cache_.push_back(std::move(sc));
        }
        h = std::move(h_next);
    }
    out = std::move(h);
}

void
GruLayer::backwardInto(const Matrix &grad_output, Matrix &grad_input)
{
    if (cache_.size() != timesteps_)
        panic("GruLayer::backward without a training forward pass");
    size_t batch = grad_output.rows();
    Matrix dh = grad_output;
    grad_input.reshape(batch, inputSize());

    for (size_t t = timesteps_; t-- > 0;) {
        const StepCache &sc = cache_[t];

        // h_t = (1 - u) . h_prev + u . n — the elementwise chains are
        // fused into single passes (same per-element expressions and
        // evaluation order as the unfused matrices they replace).
        Matrix d_u_pre(batch, hidden_);
        Matrix d_n_pre(batch, hidden_);
        Matrix dh_prev(batch, hidden_);
        for (size_t idx = 0; idx < dh.size(); ++idx) {
            double dhv = dh.data()[idx];
            double uv = sc.u.data()[idx];
            d_u_pre.data()[idx] =
                (dhv * (sc.n.data()[idx] - sc.hPrev.data()[idx])) *
                (uv * (1.0 - uv));
            d_n_pre.data()[idx] =
                (dhv * uv) *
                activateDerivative(act_, sc.nPre.data()[idx]);
            dh_prev.data()[idx] = dhv * (1.0 - uv);
        }

        Matrix d_rh = d_n_pre.matmulTransposed(rn_);
        Matrix d_r_pre(batch, hidden_);
        for (size_t idx = 0; idx < d_rh.size(); ++idx) {
            double rv = sc.r.data()[idx];
            d_r_pre.data()[idx] =
                (d_rh.data()[idx] * sc.hPrev.data()[idx]) *
                (rv * (1.0 - rv));
            dh_prev.data()[idx] += d_rh.data()[idx] * rv;
        }

        sc.x.transposedMatmulInto(d_u_pre, scratchW_);
        gradWu_ += scratchW_;
        sc.x.transposedMatmulInto(d_r_pre, scratchW_);
        gradWr_ += scratchW_;
        sc.x.transposedMatmulInto(d_n_pre, scratchW_);
        gradWn_ += scratchW_;
        sc.hPrev.transposedMatmulInto(d_u_pre, scratchR_);
        gradRu_ += scratchR_;
        sc.hPrev.transposedMatmulInto(d_r_pre, scratchR_);
        gradRr_ += scratchR_;
        sc.rh.transposedMatmulInto(d_n_pre, scratchR_);
        gradRn_ += scratchR_;
        gradBu_ += d_u_pre.columnSums();
        gradBr_ += d_r_pre.columnSums();
        gradBn_ += d_n_pre.columnSums();

        d_u_pre.matmulTransposedInto(ru_, scratchH_);
        dh_prev += scratchH_;
        d_r_pre.matmulTransposedInto(rr_, scratchH_);
        dh_prev += scratchH_;

        Matrix dx = d_u_pre.matmulTransposed(wu_);
        d_r_pre.matmulTransposedInto(wr_, scratchX_);
        dx += scratchX_;
        d_n_pre.matmulTransposedInto(wn_, scratchX_);
        dx += scratchX_;
        grad_input.setBlock(0, t * features_, dx);

        dh = std::move(dh_prev);
    }
}

std::vector<Matrix *>
GruLayer::parameters()
{
    return {&wu_, &wr_, &wn_, &ru_, &rr_, &rn_, &bu_, &br_, &bn_};
}

std::vector<Matrix *>
GruLayer::gradients()
{
    return {&gradWu_, &gradWr_, &gradWn_, &gradRu_, &gradRr_, &gradRn_,
            &gradBu_, &gradBr_, &gradBn_};
}

std::string
GruLayer::describe() const
{
    return strprintf("%zu (GRU) %s", hidden_, activationName(act_).c_str());
}

} // namespace nn
} // namespace geo
