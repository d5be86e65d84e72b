#include "runtime/pim_runtime.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "nn/conv_exec.hpp"

namespace epim {

namespace {

/// Float reference of one deployed block (for activation calibration).
Tensor float_block(const Epitome& epitome, const ChannelAffine& bn,
                   const Tensor& x, bool pool) {
  Tensor y = conv2d(x, epitome.reconstruct(), /*stride=*/1, /*pad=*/1);
  affine_relu(y, bn);
  return pool ? max_pool2d(y, 2, 2, 0) : y;
}

}  // namespace

PimNetworkRuntime::PimNetworkRuntime(const SmallEpitomeNet& model,
                                     const Dataset& calibration,
                                     RuntimeConfig config)
    : config_(config), deploy_(model.deploy()) {
  EPIM_CHECK(config_.weight_bits >= 2 && config_.weight_bits <= 16,
             "weight bits out of range");
  EPIM_CHECK(config_.act_bits >= 2 && config_.act_bits <= 16,
             "act bits out of range");
  EPIM_CHECK(calibration.size() > 0, "calibration set must be non-empty");

  // --- activation calibration on the float model ---
  ActivationObserver in_obs(config_.act_percentile);
  ActivationObserver mid2_obs(config_.act_percentile);
  ActivationObserver mid3_obs(config_.act_percentile);
  const std::int64_t n_cal = std::min<std::int64_t>(calibration.size(), 32);
  for (std::int64_t i = 0; i < n_cal; ++i) {
    const Tensor x = calibration.sample(i);
    // The first block sees signed inputs; observe magnitudes so the
    // symmetric input quantizer covers them.
    Tensor mag(x.shape());
    for (std::int64_t j = 0; j < x.numel(); ++j) {
      mag.at(j) = std::abs(x.at(j));
    }
    in_obs.observe(mag);
    const Tensor a1 = float_block(deploy_.block1, deploy_.bn1, x, false);
    mid2_obs.observe(a1);
    const Tensor a2 = float_block(deploy_.block2, deploy_.bn2, a1, true);
    mid3_obs.observe(a2);
  }

  // Input quantizers: block1 symmetric (signed, one bit spent on sign via
  // the +/- split); blocks 2-3 unsigned post-ReLU.
  compile_network({in_obs.params(config_.act_bits - 1),
                   mid2_obs.params(config_.act_bits),
                   mid3_obs.params(config_.act_bits)});
}

PimNetworkRuntime::PimNetworkRuntime(SmallEpitomeNet::Deploy deploy,
                                     const ActivationParams& act_params,
                                     RuntimeConfig config)
    : config_(config), deploy_(std::move(deploy)) {
  EPIM_CHECK(config_.weight_bits >= 2 && config_.weight_bits <= 16,
             "weight bits out of range");
  EPIM_CHECK(config_.act_bits >= 2 && config_.act_bits <= 16,
             "act bits out of range");
  for (const QuantParams& p : act_params) {
    EPIM_CHECK(p.scale > 0.0, "activation quantizer scale must be positive");
  }
  compile_network(act_params);
}

void PimNetworkRuntime::compile_network(const ActivationParams& act_params) {
  const std::int64_t s = deploy_.config.image_size;
  blocks_.push_back(compile_block(deploy_.block1, deploy_.bn1, s, "block1"));
  blocks_.push_back(compile_block(deploy_.block2, deploy_.bn2, s, "block2"));
  blocks_.push_back(
      compile_block(deploy_.block3, deploy_.bn3, s / 2, "block3"));
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    blocks_[b].act_in = act_params[b];
  }
  // With input scales known, resolve the full per-channel dequantization
  // factor once; run_block's inner loops index it directly.
  for (CompiledBlock& block : blocks_) {
    const std::int64_t cout = block.layer.conv.out_channels;
    const std::int64_t cout_e = block.engine->spec().cout_e;
    block.dequant.resize(static_cast<std::size_t>(cout));
    for (std::int64_t co = 0; co < cout; ++co) {
      block.dequant[static_cast<std::size_t>(co)] =
          block.act_in.scale *
          block.weight_scale[static_cast<std::size_t>(co % cout_e)];
    }
  }
}

PimNetworkRuntime::ActivationParams PimNetworkRuntime::activation_params()
    const {
  return {blocks_[0].act_in, blocks_[1].act_in, blocks_[2].act_in};
}

PimNetworkRuntime::CompiledBlock PimNetworkRuntime::compile_block(
    const Epitome& epitome, const ChannelAffine& bn, std::int64_t ifm,
    const std::string& name) {
  const EpitomeSpec& spec = epitome.spec();
  const std::int64_t rows = spec.rows();
  const std::int64_t cols = spec.cout_e;
  const std::int64_t qmax = (std::int64_t{1} << (config_.weight_bits - 1)) - 1;

  // Per-output-channel symmetric quantization: every epitome column gets its
  // own scale (hardware: one digital scaling factor per bit-line group,
  // matching the paper's per-crossbar scaling factors).
  CompiledBlock block;
  block.layer = ConvLayerInfo{name, epitome.conv(), ifm, ifm};
  block.bn = bn;
  block.weight_scale.assign(static_cast<std::size_t>(cols), 1.0);
  const Tensor& w = epitome.weights();  // (cout_e, cin_e, p, q)
  std::vector<std::vector<int>> qmatrix(
      static_cast<std::size_t>(rows),
      std::vector<int>(static_cast<std::size_t>(cols), 0));
  for (std::int64_t c = 0; c < cols; ++c) {
    double amax = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
      amax = std::max(amax, std::abs(static_cast<double>(w.at(c * rows + r))));
    }
    const double scale = amax > 0 ? amax / static_cast<double>(qmax) : 1.0;
    block.weight_scale[static_cast<std::size_t>(c)] = scale;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t q = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::llround(w.at(c * rows + r) / scale)),
          -qmax, qmax);
      qmatrix[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
          static_cast<int>(q);
    }
  }
  block.engine = std::make_unique<PimLayerEngine>(
      block.layer, spec, qmatrix, config_.weight_bits, config_.crossbar,
      config_.non_ideal);
  return block;
}

Tensor PimNetworkRuntime::run_block(const CompiledBlock& block,
                                    const Tensor& input, Workspace& ws,
                                    std::int64_t& clips) const {
  const ConvSpec& conv = block.layer.conv;
  const std::int64_t oh = block.layer.ofm_h(), ow = block.layer.ofm_w();
  const double s_in = block.act_in.scale;
  const bool signed_input = &block == &blocks_.front();

  auto to_codes = [&](IntImage& img, auto select) -> const IntImage& {
    img.channels = input.dim(0);
    img.height = input.dim(1);
    img.width = input.dim(2);
    img.data.resize(static_cast<std::size_t>(img.numel()));
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      img.data[static_cast<std::size_t>(i)] = select(input.at(i));
    }
    return img;
  };
  const std::int64_t code_max = block.act_in.max_code();
  auto quant = [&](float v) {
    return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::llround(std::abs(v) / s_in)), 0,
        code_max));
  };

  const int abits = signed_input ? config_.act_bits - 1 : config_.act_bits;
  IntOutput acc;
  if (signed_input) {
    // Differential input encoding: x = x+ - x-, two crossbar passes.
    const IntImage& pos =
        to_codes(ws.pos, [&](float v) { return v > 0 ? quant(v) : 0u; });
    const IntImage& neg =
        to_codes(ws.neg, [&](float v) { return v < 0 ? quant(v) : 0u; });
    acc = block.engine->run(pos, abits, &clips);
    const IntOutput acc_neg = block.engine->run(neg, abits, &clips);
    for (std::size_t i = 0; i < acc.data.size(); ++i) {
      acc.data[i] -= acc_neg.data[i];
    }
  } else {
    acc = block.engine->run(
        to_codes(ws.pos, [&](float v) { return quant(v); }), abits, &clips);
  }

  // Digital dequantization (per-channel weight scale x activation scale),
  // then the folded BatchNorm + ReLU.
  Tensor out({conv.out_channels, oh, ow});
  const std::int64_t plane = oh * ow;
  for (std::int64_t co = 0; co < conv.out_channels; ++co) {
    const double d = block.dequant[static_cast<std::size_t>(co)];
    for (std::int64_t p = 0; p < plane; ++p) {
      out.at(co * plane + p) = static_cast<float>(
          d * static_cast<double>(
                  acc.data[static_cast<std::size_t>(co * plane + p)]));
    }
  }
  affine_relu(out, block.bn);
  return out;
}

std::int64_t PimNetworkRuntime::total_crossbars() const {
  std::int64_t n = 0;
  for (const auto& b : blocks_) n += b.engine->num_crossbars();
  return n;
}

Tensor PimNetworkRuntime::forward_impl(const Tensor& image, Workspace& ws,
                                       std::int64_t& clips) const {
  EPIM_CHECK(image.rank() == 3, "forward expects a (C, H, W) image");
  Tensor a1 = run_block(blocks_[0], image, ws, clips);
  Tensor a2 = max_pool2d(run_block(blocks_[1], a1, ws, clips), 2, 2, 0);
  Tensor a3 = max_pool2d(run_block(blocks_[2], a2, ws, clips), 2, 2, 0);
  const Tensor pooled = global_avg_pool(a3);  // (64)
  // Float classifier head (kept at full precision, as in training).
  const std::int64_t k = deploy_.dense_w.dim(0);
  Tensor logits({k});
  for (std::int64_t j = 0; j < k; ++j) {
    double accum = deploy_.dense_b(j);
    for (std::int64_t f = 0; f < deploy_.dense_w.dim(1); ++f) {
      accum += static_cast<double>(deploy_.dense_w(j, f)) * pooled(f);
    }
    logits(j) = static_cast<float>(accum);
  }
  return logits;
}

Tensor PimNetworkRuntime::forward(const Tensor& image,
                                  std::int64_t* clips) const {
  Workspace ws;
  std::int64_t c = 0;
  Tensor logits = forward_impl(image, ws, c);
  if (clips != nullptr) *clips = c;
  return logits;
}

std::vector<Tensor> PimNetworkRuntime::forward_batch(
    const std::vector<Tensor>& images,
    std::vector<std::int64_t>* per_image_clips) const {
  const std::int64_t n = static_cast<std::int64_t>(images.size());
  std::vector<Tensor> logits(images.size());
  if (per_image_clips != nullptr) {
    per_image_clips->assign(images.size(), 0);
  }
  // Every image's forward is pure against the programmed crossbars; results
  // land in per-image slots, so placement cannot affect the output.
  parallel_for_chunks(n, [&](int, std::int64_t begin, std::int64_t end) {
    Workspace ws;
    for (std::int64_t i = begin; i < end; ++i) {
      std::int64_t clips = 0;
      logits[static_cast<std::size_t>(i)] =
          forward_impl(images[static_cast<std::size_t>(i)], ws, clips);
      if (per_image_clips != nullptr) {
        (*per_image_clips)[static_cast<std::size_t>(i)] = clips;
      }
    }
  });
  return logits;
}

double PimNetworkRuntime::evaluate(const Dataset& dataset,
                                   std::int64_t* clips) const {
  EPIM_CHECK(dataset.size() > 0, "cannot evaluate on an empty dataset");
  // Images fan out across threads; each chunk keeps its own workspace and
  // integer tallies, combined in chunk order (exact integer sums, so the
  // result is identical at any thread count).
  struct Tally {
    std::int64_t correct = 0;
    std::int64_t clips = 0;
  };
  const int chunks = std::max(num_chunks(dataset.size()), 1);
  std::vector<Tally> tallies(static_cast<std::size_t>(chunks));
  parallel_for_chunks(
      dataset.size(), chunks,
      [&](int chunk, std::int64_t begin, std::int64_t end) {
        Workspace ws;
        Tally& tally = tallies[static_cast<std::size_t>(chunk)];
        for (std::int64_t i = begin; i < end; ++i) {
          const Tensor logits = forward_impl(dataset.sample(i), ws,
                                             tally.clips);
          std::int64_t arg = 0;
          for (std::int64_t j = 1; j < logits.numel(); ++j) {
            if (logits.at(j) > logits.at(arg)) arg = j;
          }
          tally.correct +=
              arg == dataset.labels[static_cast<std::size_t>(i)] ? 1 : 0;
        }
      });
  std::int64_t correct = 0, total_clips = 0;
  for (const Tally& t : tallies) {
    correct += t.correct;
    total_clips += t.clips;
  }
  if (clips != nullptr) *clips = total_clips;
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

}  // namespace epim
