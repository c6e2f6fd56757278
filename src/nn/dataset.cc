#include "nn/dataset.hh"

#include "util/logging.hh"

namespace geo {
namespace nn {

namespace {

/** Dataset::slice into `out`, reusing the capacity of its buffers. */
void
sliceInto(const Dataset &data, size_t begin, size_t end, Dataset &out)
{
    if (data.inputs.rows() != data.targets.rows())
        panic("Dataset::slice: %zu inputs vs %zu targets",
              data.inputs.rows(), data.targets.rows());
    data.inputs.rowRangeInto(begin, end, out.inputs);
    data.targets.rowRangeInto(begin, end, out.targets);
}

} // namespace

Dataset
Dataset::slice(size_t begin, size_t end) const
{
    Dataset out;
    sliceInto(*this, begin, end, out);
    return out;
}

DataSplit
chronologicalSplit(const Dataset &data, double train_frac, double val_frac)
{
    DataSplit split;
    chronologicalSplitInto(data, train_frac, val_frac, split);
    return split;
}

void
chronologicalSplitInto(const Dataset &data, double train_frac,
                       double val_frac, DataSplit &out)
{
    if (train_frac <= 0.0 || val_frac < 0.0 ||
        train_frac + val_frac >= 1.0) {
        panic("chronologicalSplit: bad fractions %f / %f", train_frac,
              val_frac);
    }
    size_t n = data.size();
    size_t train_end = static_cast<size_t>(
        static_cast<double>(n) * train_frac);
    size_t val_end = static_cast<size_t>(
        static_cast<double>(n) * (train_frac + val_frac));
    sliceInto(data, 0, train_end, out.train);
    sliceInto(data, train_end, val_end, out.validation);
    sliceInto(data, val_end, n, out.test);
}

} // namespace nn
} // namespace geo
