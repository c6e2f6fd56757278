#include "nn/lstm_layer.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/random.hh"

namespace geo {
namespace nn {

LstmLayer::LstmLayer(size_t features_per_step, size_t timesteps,
                     size_t hidden_size, Activation act, Rng &rng)
    : features_(features_per_step), timesteps_(timesteps),
      hidden_(hidden_size), act_(act)
{
    if (features_ == 0 || timesteps_ == 0 || hidden_ == 0)
        panic("LstmLayer: zero dimension (%zu, %zu, %zu)", features_,
              timesteps_, hidden_);
    size_t in = hidden_ + features_;
    for (Matrix *w : {&wi_, &wf_, &wo_, &wg_}) {
        *w = Matrix(in, hidden_);
        w->fillXavierUniform(rng, in, hidden_);
    }
    for (Matrix *b : {&bi_, &bo_, &bg_})
        *b = Matrix(1, hidden_);
    // Standard trick: bias the forget gate open so early training does
    // not wipe the cell state.
    bf_ = Matrix(1, hidden_, 1.0);
    for (Matrix *g : {&gradWi_, &gradWf_, &gradWo_, &gradWg_})
        *g = Matrix(in, hidden_);
    for (Matrix *g : {&gradBi_, &gradBf_, &gradBo_, &gradBg_})
        *g = Matrix(1, hidden_);
}

Matrix
LstmLayer::concat(const Matrix &h_prev, const Matrix &x_t) const
{
    Matrix z(h_prev.rows(), hidden_ + features_);
    z.setBlock(0, 0, h_prev);
    z.setBlock(0, hidden_, x_t);
    return z;
}

void
LstmLayer::forwardInto(const Matrix &input, bool training, Matrix &out)
{
    if (input.cols() != inputSize())
        panic("LstmLayer::forward: input width %zu != %zu", input.cols(),
              inputSize());
    size_t batch = input.rows();
    Matrix h(batch, hidden_);
    Matrix c(batch, hidden_);
    if (training) {
        cache_.clear();
        cache_.reserve(timesteps_);
        cachedCPrev0_ = Matrix(batch, hidden_);
    }
    for (size_t t = 0; t < timesteps_; ++t) {
        Matrix xt = input.colRange(t * features_, (t + 1) * features_);
        Matrix z = concat(h, xt);
        Matrix i = z.matmul(wi_);
        i.addRowBroadcastInPlace(bi_);
        applyActivationInPlace(Activation::Sigmoid, i);
        Matrix f = z.matmul(wf_);
        f.addRowBroadcastInPlace(bf_);
        applyActivationInPlace(Activation::Sigmoid, f);
        Matrix o = z.matmul(wo_);
        o.addRowBroadcastInPlace(bo_);
        applyActivationInPlace(Activation::Sigmoid, o);
        Matrix g_pre = z.matmul(wg_);
        g_pre.addRowBroadcastInPlace(bg_);
        Matrix g = g_pre;
        applyActivationInPlace(act_, g);
        // c_t = f . c_{t-1} + i . g, fused into one pass.
        Matrix c_next(batch, hidden_);
        for (size_t idx = 0; idx < c_next.size(); ++idx)
            c_next.data()[idx] = f.data()[idx] * c.data()[idx] +
                                 i.data()[idx] * g.data()[idx];
        Matrix c_act = c_next;
        applyActivationInPlace(act_, c_act);
        Matrix h_next = o.hadamard(c_act);
        if (training) {
            StepCache sc;
            sc.z = std::move(z);
            sc.i = i;
            sc.f = f;
            sc.o = o;
            sc.g = g;
            sc.gPre = std::move(g_pre);
            sc.c = c_next;
            sc.cAct = c_act;
            sc.cActPre = c_next;
            cache_.push_back(std::move(sc));
        }
        c = std::move(c_next);
        h = std::move(h_next);
    }
    out = std::move(h);
}

void
LstmLayer::backwardInto(const Matrix &grad_output, Matrix &grad_input)
{
    if (cache_.size() != timesteps_)
        panic("LstmLayer::backward without a training forward pass");
    size_t batch = grad_output.rows();
    Matrix dh = grad_output;
    grad_input.reshape(batch, inputSize());
    Matrix dc(batch, hidden_);

    for (size_t t = timesteps_; t-- > 0;) {
        const StepCache &sc = cache_[t];
        const Matrix &c_prev = (t == 0) ? cachedCPrev0_ : cache_[t - 1].c;

        // h_t = o . act(c_t); c_t = f . c_{t-1} + i . g. The
        // elementwise gate chains are fused into one pass with the
        // same per-element expressions the unfused matrices computed.
        Matrix d_i_pre(batch, hidden_);
        Matrix d_f_pre(batch, hidden_);
        Matrix d_o_pre(batch, hidden_);
        Matrix d_g_pre(batch, hidden_);
        Matrix dc_prev(batch, hidden_);
        for (size_t idx = 0; idx < dh.size(); ++idx) {
            double dhv = dh.data()[idx];
            double iv = sc.i.data()[idx];
            double fv = sc.f.data()[idx];
            double ov = sc.o.data()[idx];
            double d_o = dhv * sc.cAct.data()[idx];
            dc.data()[idx] +=
                (dhv * ov) *
                activateDerivative(act_, sc.cActPre.data()[idx]);
            double dcv = dc.data()[idx];
            d_i_pre.data()[idx] =
                (dcv * sc.g.data()[idx]) * (iv * (1.0 - iv));
            d_f_pre.data()[idx] =
                (dcv * c_prev.data()[idx]) * (fv * (1.0 - fv));
            d_o_pre.data()[idx] = d_o * (ov * (1.0 - ov));
            d_g_pre.data()[idx] =
                (dcv * iv) *
                activateDerivative(act_, sc.gPre.data()[idx]);
            dc_prev.data()[idx] = dcv * fv;
        }

        sc.z.transposedMatmulInto(d_i_pre, scratchW_);
        gradWi_ += scratchW_;
        sc.z.transposedMatmulInto(d_f_pre, scratchW_);
        gradWf_ += scratchW_;
        sc.z.transposedMatmulInto(d_o_pre, scratchW_);
        gradWo_ += scratchW_;
        sc.z.transposedMatmulInto(d_g_pre, scratchW_);
        gradWg_ += scratchW_;
        gradBi_ += d_i_pre.columnSums();
        gradBf_ += d_f_pre.columnSums();
        gradBo_ += d_o_pre.columnSums();
        gradBg_ += d_g_pre.columnSums();

        Matrix dz = d_i_pre.matmulTransposed(wi_);
        d_f_pre.matmulTransposedInto(wf_, scratchZ_);
        dz += scratchZ_;
        d_o_pre.matmulTransposedInto(wo_, scratchZ_);
        dz += scratchZ_;
        d_g_pre.matmulTransposedInto(wg_, scratchZ_);
        dz += scratchZ_;

        dh = dz.colRange(0, hidden_);
        grad_input.setBlock(0, t * features_,
                            dz.colRange(hidden_, hidden_ + features_));
        dc = std::move(dc_prev);
    }
}

std::vector<Matrix *>
LstmLayer::parameters()
{
    return {&wi_, &wf_, &wo_, &wg_, &bi_, &bf_, &bo_, &bg_};
}

std::vector<Matrix *>
LstmLayer::gradients()
{
    return {&gradWi_, &gradWf_, &gradWo_, &gradWg_,
            &gradBi_, &gradBf_, &gradBo_, &gradBg_};
}

std::string
LstmLayer::describe() const
{
    return strprintf("%zu (LSTM) %s", hidden_, activationName(act_).c_str());
}

} // namespace nn
} // namespace geo
