#include "nn/serialize.hh"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "util/fs_atomic.hh"
#include "util/logging.hh"

namespace geo {
namespace nn {

namespace {

constexpr const char *kMagic = "geomancy-nn-v1";

/** Room for one weight, its separator and the row's newline: the
 *  longest %.17g text is 24 bytes ("-2.2250738585072014e-308"). */
constexpr size_t kWeightChars = 32;

/** Topology fingerprint: layer types and parameter shapes. */
std::string
fingerprint(Sequential &model)
{
    std::ostringstream os;
    for (size_t i = 0; i < model.layerCount(); ++i) {
        Layer &layer = model.layer(i);
        os << layer.typeName() << ':' << layer.inputSize() << "->"
           << layer.outputSize() << ';';
    }
    return os.str();
}

} // namespace

bool
saveWeights(Sequential &model, std::ostream &os)
{
    os << kMagic << '\n';
    os << fingerprint(model) << '\n';
    std::vector<Matrix *> params = model.parameters();
    os << params.size() << '\n';
    // Each weight as printf("%.17g"), which is what std::to_chars with
    // a precision of 17 is defined to print, formatted in bounded
    // pieces.
    char buf[4096];
    for (const Matrix *p : params) {
        os << p->rows() << ' ' << p->cols();
        char *at = buf;
        for (double v : p->data()) {
            if (static_cast<size_t>(buf + sizeof buf - at) < kWeightChars) {
                os.write(buf, at - buf);
                at = buf;
            }
            *at++ = ' ';
            at = std::to_chars(at, buf + sizeof buf, v,
                               std::chars_format::general, 17)
                     .ptr;
        }
        *at++ = '\n';
        os.write(buf, at - buf);
    }
    return static_cast<bool>(os);
}

bool
loadWeights(Sequential &model, std::istream &is)
{
    std::string magic;
    if (!std::getline(is, magic) || magic != kMagic) {
        warn("loadWeights: bad magic '%s'", magic.c_str());
        return false;
    }
    std::string fp;
    if (!std::getline(is, fp) || fp != fingerprint(model)) {
        warn("loadWeights: topology mismatch");
        return false;
    }
    size_t count = 0;
    if (!(is >> count))
        return false;
    std::vector<Matrix *> params = model.parameters();
    if (count != params.size()) {
        warn("loadWeights: %zu tensors in file, model has %zu", count,
             params.size());
        return false;
    }
    // Read every value before storing any: a stream that fails part
    // way leaves the model as it was.
    std::vector<double> values;
    for (Matrix *p : params) {
        size_t rows = 0, cols = 0;
        if (!(is >> rows >> cols))
            return false;
        if (rows != p->rows() || cols != p->cols()) {
            warn("loadWeights: tensor shape %zux%zu, expected %zux%zu",
                 rows, cols, p->rows(), p->cols());
            return false;
        }
        for (size_t i = 0; i < p->size(); ++i) {
            double v = 0.0;
            if (!(is >> v))
                return false;
            values.push_back(v);
        }
    }
    const double *next = values.data();
    for (Matrix *p : params) {
        std::copy_n(next, p->size(), p->data().begin());
        next += p->size();
    }
    return true;
}

bool
saveWeightsFile(Sequential &model, const std::string &path)
{
    // Stage in memory and publish atomically: a writer killed mid-save
    // must not leave a truncated file that loadWeights half-parses.
    std::ostringstream os;
    if (!saveWeights(model, os))
        return false;
    return util::writeFileAtomic(path, os.str());
}

} // namespace nn
} // namespace geo
