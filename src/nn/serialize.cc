#include "nn/serialize.hh"

#include <sstream>

#include "util/fs_atomic.hh"
#include "util/logging.hh"

namespace geo {
namespace nn {

namespace {

constexpr const char *kMagic = "geomancy-nn-v1";

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
    os.precision(17);
    for (const Matrix *p : params) {
        os << p->rows() << ' ' << p->cols();
        for (double v : p->data())
            os << ' ' << v;
        os << '\n';
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
    for (Matrix *p : params) {
        size_t rows = 0, cols = 0;
        if (!(is >> rows >> cols))
            return false;
        if (rows != p->rows() || cols != p->cols()) {
            warn("loadWeights: tensor shape %zux%zu, expected %zux%zu",
                 rows, cols, p->rows(), p->cols());
            return false;
        }
        for (double &v : p->data())
            if (!(is >> v))
                return false;
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
