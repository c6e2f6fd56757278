#include "nn/activation.hh"

#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace geo {
namespace nn {

namespace {

/**
 * Two-lane vector ReLU helpers. The scalar select `x > 0 ? x : 0`
 * does not vectorize on baseline x86-64 (no blend before SSE4.1), so
 * the loop retires one branchy element per iteration. A compare mask
 * plus bitwise AND computes the identical result two lanes at a time:
 * x > 0 keeps x's bits, anything else (negatives, -0.0, NaN) yields
 * +0.0 — exactly what the scalar ternary produces.
 */
typedef double v2df __attribute__((vector_size(16), may_alias));
typedef long long v2di __attribute__((vector_size(16), may_alias));

inline void
reluInPlace(double *p, size_t n)
{
    const v2df zero = {0.0, 0.0};
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        v2df x;
        __builtin_memcpy(&x, p + i, sizeof(x));
        const v2di keep = (x > zero);
        x = (v2df)((v2di)x & keep);
        __builtin_memcpy(p + i, &x, sizeof(x));
    }
    for (; i < n; ++i)
        p[i] = p[i] > 0.0 ? p[i] : 0.0;
}

inline void
reluMaskInto(const double *src, double *dst, size_t n)
{
    const v2df zero = {0.0, 0.0};
    const v2df one = {1.0, 1.0};
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        v2df x;
        __builtin_memcpy(&x, src + i, sizeof(x));
        const v2di keep = (x > zero);
        const v2df r = (v2df)((v2di)one & keep);
        __builtin_memcpy(dst + i, &r, sizeof(r));
    }
    for (; i < n; ++i)
        dst[i] = src[i] > 0.0 ? 1.0 : 0.0;
}

} // namespace

std::string
activationName(Activation act)
{
    switch (act) {
      case Activation::Linear:
        return "linear";
      case Activation::ReLU:
        return "relu";
      case Activation::Sigmoid:
        return "sigmoid";
      case Activation::Tanh:
        return "tanh";
    }
    panic("unknown activation %d", static_cast<int>(act));
}

double
activate(Activation act, double x)
{
    switch (act) {
      case Activation::Linear:
        return x;
      case Activation::ReLU:
        return x > 0.0 ? x : 0.0;
      case Activation::Sigmoid:
        return 1.0 / (1.0 + std::exp(-x));
      case Activation::Tanh:
        return std::tanh(x);
    }
    panic("unknown activation %d", static_cast<int>(act));
}

double
activateDerivative(Activation act, double x)
{
    switch (act) {
      case Activation::Linear:
        return 1.0;
      case Activation::ReLU:
        return x > 0.0 ? 1.0 : 0.0;
      case Activation::Sigmoid: {
        double s = 1.0 / (1.0 + std::exp(-x));
        return s * (1.0 - s);
      }
      case Activation::Tanh: {
        double t = std::tanh(x);
        return 1.0 - t * t;
      }
    }
    panic("unknown activation %d", static_cast<int>(act));
}

void
applyActivationInPlace(Activation act, Matrix &values)
{
    switch (act) {
      case Activation::Linear:
        return;
      case Activation::ReLU:
        reluInPlace(values.data().data(), values.size());
        return;
      case Activation::Sigmoid:
        for (double &x : values.data())
            x = 1.0 / (1.0 + std::exp(-x));
        return;
      case Activation::Tanh:
        for (double &x : values.data())
            x = std::tanh(x);
        return;
    }
    panic("unknown activation %d", static_cast<int>(act));
}

Matrix
activationDerivative(Activation act, const Matrix &pre_activation)
{
    if (act == Activation::Linear)
        return Matrix(pre_activation.rows(), pre_activation.cols(), 1.0);
    return pre_activation.map(
        [act](double x) { return activateDerivative(act, x); });
}

void
activationDerivativeFromOutput(Activation act, const Matrix &output,
                               Matrix &out)
{
    out.reshape(output.rows(), output.cols());
    double *dst = out.data().data();
    const double *src = output.data().data();
    const size_t n = output.size();
    switch (act) {
      case Activation::Linear:
        for (size_t i = 0; i < n; ++i)
            dst[i] = 1.0;
        return;
      case Activation::ReLU:
        reluMaskInto(src, dst, n);
        return;
      case Activation::Sigmoid:
        for (size_t i = 0; i < n; ++i)
            dst[i] = src[i] * (1.0 - src[i]);
        return;
      case Activation::Tanh:
        for (size_t i = 0; i < n; ++i)
            dst[i] = 1.0 - src[i] * src[i];
        return;
    }
    panic("unknown activation %d", static_cast<int>(act));
}

} // namespace nn
} // namespace geo
