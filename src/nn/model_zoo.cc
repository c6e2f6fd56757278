#include "nn/model_zoo.hh"

#include "nn/dense_layer.hh"
#include "nn/gru_layer.hh"
#include "nn/lstm_layer.hh"
#include "nn/simple_rnn_layer.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace geo {
namespace nn {

namespace {

/** One layer in a zoo recipe. */
struct LayerSpec
{
    enum class Kind { Dense, SimpleRnn, Lstm, Gru };
    Kind kind;
    size_t units;   ///< multiplier of Z, or absolute when zTimes == false
    bool zTimes;    ///< units is a multiple of Z
    Activation act;
};

LayerSpec
dense(size_t mult, Activation act)
{
    return {LayerSpec::Kind::Dense, mult, true, act};
}

LayerSpec
denseOut(Activation act)
{
    return {LayerSpec::Kind::Dense, 1, false, act};
}

LayerSpec
rnn(LayerSpec::Kind kind, size_t mult, Activation act)
{
    return {kind, mult, true, act};
}

/** The 23 recipes of Table I. */
std::vector<LayerSpec>
recipe(int number)
{
    using K = LayerSpec::Kind;
    const Activation relu = Activation::ReLU;
    const Activation lin = Activation::Linear;
    switch (number) {
      case 1:
        return {dense(16, relu), dense(8, relu), dense(4, relu),
                denseOut(lin)};
      case 2:
        return {dense(16, relu), dense(8, relu), denseOut(relu)};
      case 3:
        return {dense(16, relu), dense(8, relu), dense(4, relu),
                denseOut(relu)};
      case 4:
        return {dense(16, relu), dense(8, relu), denseOut(lin)};
      case 5:
        return {dense(16, lin), dense(8, lin), dense(4, lin), dense(1, lin),
                denseOut(relu)};
      case 6:
        return {dense(16, relu), dense(16, relu), dense(16, relu),
                dense(16, relu), denseOut(relu)};
      case 7:
        return {dense(16, relu), dense(16, relu), dense(16, relu),
                dense(16, relu), dense(16, relu), denseOut(relu)};
      case 8:
        // Table I prints models 8 and 9 identically; we give 8 the
        // deeper stack (5 hidden layers) to match its larger reported
        // training time.
        return {dense(1, relu), dense(1, relu), dense(1, relu),
                dense(1, relu), dense(1, relu), denseOut(relu)};
      case 9:
        return {dense(1, relu), dense(1, relu), dense(1, relu),
                dense(1, relu), denseOut(relu)};
      case 10:
        // Models 10/11 also print identically; 10 gets the extra hidden
        // layer for the same reason.
        return {dense(1, relu), dense(1, relu), denseOut(lin)};
      case 11:
        return {dense(1, relu), denseOut(lin)};
      case 12:
        return {rnn(K::Lstm, 1, relu), denseOut(lin)};
      case 13:
        return {rnn(K::Gru, 1, relu), denseOut(lin)};
      case 14:
        return {rnn(K::SimpleRnn, 1, relu), denseOut(lin)};
      case 15:
        return {rnn(K::Gru, 1, relu), dense(1, relu), denseOut(lin)};
      case 16:
        return {rnn(K::Gru, 1, relu), dense(1, relu), dense(1, relu),
                denseOut(lin)};
      case 17:
        return {rnn(K::Gru, 1, relu), dense(4, relu), dense(1, relu),
                denseOut(lin)};
      case 18:
        return {rnn(K::SimpleRnn, 1, relu), dense(4, relu), dense(1, relu),
                denseOut(lin)};
      case 19:
        return {rnn(K::SimpleRnn, 1, relu), dense(1, relu), dense(1, relu),
                dense(1, relu), denseOut(lin)};
      case 20:
        return {rnn(K::SimpleRnn, 1, relu), dense(1, relu), denseOut(lin)};
      case 21:
        return {rnn(K::Lstm, 1, relu), dense(1, relu), denseOut(lin)};
      case 22:
        return {rnn(K::Lstm, 1, relu), dense(1, relu), dense(1, relu),
                denseOut(lin)};
      case 23:
        return {rnn(K::Lstm, 1, relu), dense(4, relu), dense(1, relu),
                denseOut(lin)};
      default:
        panic("modelSpec: model number %d out of 1..%d", number,
              kModelZooSize);
    }
}

std::string
kindName(LayerSpec::Kind kind)
{
    switch (kind) {
      case LayerSpec::Kind::Dense:
        return "Dense";
      case LayerSpec::Kind::SimpleRnn:
        return "SimpleRNN";
      case LayerSpec::Kind::Lstm:
        return "LSTM";
      case LayerSpec::Kind::Gru:
        return "GRU";
    }
    panic("unknown layer kind");
}

} // namespace

ModelSpec
modelSpec(int number, size_t z)
{
    std::vector<LayerSpec> layers = recipe(number);
    ModelSpec spec;
    spec.number = number;
    spec.recurrent = layers.front().kind != LayerSpec::Kind::Dense;
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerSpec &ls = layers[i];
        size_t units = ls.zTimes ? ls.units * z : ls.units;
        if (i)
            spec.components += ", ";
        spec.components += strprintf(
            "%zu (%s) %s", units, kindName(ls.kind).c_str(),
            ls.act == Activation::ReLU ? "ReLU" : "Linear");
    }
    return spec;
}

std::vector<ModelSpec>
allModelSpecs(size_t z)
{
    std::vector<ModelSpec> specs;
    specs.reserve(kModelZooSize);
    for (int i = 1; i <= kModelZooSize; ++i)
        specs.push_back(modelSpec(i, z));
    return specs;
}

Sequential
buildModel(int number, size_t z, Rng &rng, size_t timesteps)
{
    if (z == 0)
        panic("buildModel: z must be >= 1");
    std::vector<LayerSpec> layers = recipe(number);
    Sequential model;
    size_t width = 0; // input width of the next layer
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerSpec &ls = layers[i];
        size_t units = ls.zTimes ? ls.units * z : ls.units;
        switch (ls.kind) {
          case LayerSpec::Kind::Dense:
            if (i == 0)
                width = z;
            model.add(std::make_unique<DenseLayer>(width, units, ls.act,
                                                   rng));
            break;
          case LayerSpec::Kind::SimpleRnn:
            if (i != 0)
                panic("buildModel: recurrent layer must be first");
            model.add(std::make_unique<SimpleRnnLayer>(z, timesteps, units,
                                                       ls.act, rng));
            break;
          case LayerSpec::Kind::Lstm:
            if (i != 0)
                panic("buildModel: recurrent layer must be first");
            model.add(std::make_unique<LstmLayer>(z, timesteps, units,
                                                  ls.act, rng));
            break;
          case LayerSpec::Kind::Gru:
            if (i != 0)
                panic("buildModel: recurrent layer must be first");
            model.add(std::make_unique<GruLayer>(z, timesteps, units, ls.act,
                                                 rng));
            break;
        }
        width = units;
    }
    return model;
}

} // namespace nn
} // namespace geo
