#include "serve/artifact.hpp"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "pipeline/pipeline.hpp"
#include "runtime/pim_runtime.hpp"

namespace epim {

namespace {

using artifact::kErrBadKind;
using artifact::kErrBadMagic;
using artifact::kErrBadVersion;
using artifact::kErrChecksum;
using artifact::kErrTruncated;

constexpr char kMagic[8] = {'E', 'P', 'I', 'M', 'A', 'R', 'T', '\0'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4;
constexpr std::size_t kSectionHeaderBytes = 8 + 8 + 8;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Little-endian encoding primitives
// ---------------------------------------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u32(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void f32_vec(const std::vector<float>& v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
      // Weight tensors dominate artifact size; bulk-append them instead of
      // shifting out four bytes per element.
      const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
      bytes_.insert(bytes_.end(), raw, raw + v.size() * sizeof(float));
    } else {
      for (float x : v) f32(x);
    }
  }
  void i64_vec(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (std::int64_t x : v) i64(x);
  }
  void i32_vec(const std::vector<int>& v) {
    u64(v.size());
    for (int x : v) i32(x);
  }
  void tensor(const Tensor& t) {
    i64_vec(t.shape());
    f32_vec(t.storage());
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(
                                                      i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                      i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  std::vector<float> f32_vec() {
    const std::uint64_t n = checked_count(4);
    std::vector<float> v(static_cast<std::size_t>(n));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(float));
      pos_ += v.size() * sizeof(float);
    } else {
      for (auto& x : v) x = f32();
    }
    return v;
  }
  std::vector<std::int64_t> i64_vec() {
    const std::uint64_t n = checked_count(8);
    std::vector<std::int64_t> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = i64();
    return v;
  }
  std::vector<int> i32_vec() {
    const std::uint64_t n = checked_count(4);
    std::vector<int> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = i32();
    return v;
  }
  Tensor tensor() {
    Shape shape = i64_vec();
    std::vector<float> data = f32_vec();
    EPIM_CHECK(shape_numel(shape) == static_cast<std::int64_t>(data.size()),
               "artifact tensor shape/data size mismatch");
    return Tensor(std::move(shape), std::move(data));
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::uint64_t n) {
    EPIM_CHECK(n <= size_ - pos_, "artifact section payload exhausted");
  }
  /// Read an element count and bounds-check it against the remaining bytes
  /// before allocating (a corrupted-but-checksummed count must not OOM).
  std::uint64_t checked_count(std::uint64_t elem_bytes) {
    const std::uint64_t n = u64();
    EPIM_CHECK(n <= (size_ - pos_) / elem_bytes,
               "artifact section payload exhausted");
    return n;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Decode a serialized enum value, rejecting anything outside [0, max].
template <typename E>
E decode_enum(std::uint32_t raw, E max) {
  EPIM_CHECK(raw <= static_cast<std::uint32_t>(max),
             "artifact enum value out of range");
  return static_cast<E>(raw);
}

// ---------------------------------------------------------------------------
// Struct codecs (field order is the schema; bump kSchemaVersion on change)
// ---------------------------------------------------------------------------

void put_crossbar(Writer& w, const CrossbarConfig& c) {
  w.i64(c.rows);
  w.i64(c.cols);
  w.i32(c.cell_bits);
  w.i32(c.adc_bits);
  w.i64(c.adc_share);
  w.i32(c.fp32_weight_bits);
  w.i32(c.fp32_act_bits);
}

CrossbarConfig get_crossbar(Reader& r) {
  CrossbarConfig c;
  c.rows = r.i64();
  c.cols = r.i64();
  c.cell_bits = r.i32();
  c.adc_bits = r.i32();
  c.adc_share = r.i64();
  c.fp32_weight_bits = r.i32();
  c.fp32_act_bits = r.i32();
  return c;
}

void put_lut(Writer& w, const HardwareLut& l) {
  for (double v : {l.dac_ns, l.xbar_ns, l.sh_ns, l.adc_ns, l.shift_add_ns,
                   l.index_table_ns, l.joint_add_ns, l.buffer_copy_ns,
                   l.dac_pj, l.cell_pj, l.sh_pj, l.adc_pj, l.shift_add_pj,
                   l.buffer_rd_pj, l.buffer_wr_pj, l.index_table_pj,
                   l.joint_add_pj, l.leakage_mw_per_xbar}) {
    w.f64(v);
  }
}

HardwareLut get_lut(Reader& r) {
  HardwareLut l;
  for (double* v : {&l.dac_ns, &l.xbar_ns, &l.sh_ns, &l.adc_ns,
                    &l.shift_add_ns, &l.index_table_ns, &l.joint_add_ns,
                    &l.buffer_copy_ns, &l.dac_pj, &l.cell_pj, &l.sh_pj,
                    &l.adc_pj, &l.shift_add_pj, &l.buffer_rd_pj,
                    &l.buffer_wr_pj, &l.index_table_pj, &l.joint_add_pj,
                    &l.leakage_mw_per_xbar}) {
    *v = r.f64();
  }
  return l;
}

void put_non_ideal(Writer& w, const NonIdealityConfig& n) {
  w.f64(n.conductance_sigma);
  w.f64(n.stuck_at_zero_prob);
  w.f64(n.stuck_at_max_prob);
  w.u64(n.seed);
}

NonIdealityConfig get_non_ideal(Reader& r) {
  NonIdealityConfig n;
  n.conductance_sigma = r.f64();
  n.stuck_at_zero_prob = r.f64();
  n.stuck_at_max_prob = r.f64();
  n.seed = r.u64();
  return n;
}

void put_quant_config(Writer& w, const QuantConfig& q) {
  w.i32(q.bits);
  w.u32(static_cast<std::uint32_t>(q.scheme));
  w.f64(q.w1);
  w.f64(q.w2);
  w.i64(q.xbar_rows);
  w.i64(q.xbar_cols);
}

QuantConfig get_quant_config(Reader& r) {
  QuantConfig q;
  q.bits = r.i32();
  q.scheme = decode_enum(r.u32(), RangeScheme::kOverlapWeighted);
  q.w1 = r.f64();
  q.w2 = r.f64();
  q.xbar_rows = r.i64();
  q.xbar_cols = r.i64();
  return q;
}

void put_mixed_config(Writer& w, const MixedPrecisionConfig& m) {
  w.i32(m.low_bits);
  w.i32(m.high_bits);
  w.f64(m.budget_fraction);
  put_quant_config(w, m.quant);
  w.u64(m.seed);
}

MixedPrecisionConfig get_mixed_config(Reader& r) {
  MixedPrecisionConfig m;
  m.low_bits = r.i32();
  m.high_bits = r.i32();
  m.budget_fraction = r.f64();
  m.quant = get_quant_config(r);
  m.seed = r.u64();
  return m;
}

void put_uniform_design(Writer& w, const UniformDesign& u) {
  w.i64(u.target_rows);
  w.i64(u.target_cout);
  w.i64(u.crossbar_size);
  w.i64(u.spatial_slack);
  w.boolean(u.wrap_output);
  w.boolean(u.skip_small_layers);
}

UniformDesign get_uniform_design(Reader& r) {
  UniformDesign u;
  u.target_rows = r.i64();
  u.target_cout = r.i64();
  u.crossbar_size = r.i64();
  u.spatial_slack = r.i64();
  u.wrap_output = r.boolean();
  u.skip_small_layers = r.boolean();
  return u;
}

void put_design(Writer& w, const DesignConfig& d) {
  w.u32(static_cast<std::uint32_t>(d.policy));
  put_uniform_design(w, d.uniform);
  w.boolean(d.wrap_output);
}

DesignConfig get_design(Reader& r) {
  DesignConfig d;
  d.policy = decode_enum(r.u32(), DesignPolicy::kUniform);
  d.uniform = get_uniform_design(r);
  d.wrap_output = r.boolean();
  return d;
}

void put_candidates(Writer& w, const CandidateConfig& c) {
  w.i64_vec(c.row_targets);
  w.i64_vec(c.cout_targets);
  w.i64(c.crossbar_size);
  w.i64(c.spatial_slack);
  w.boolean(c.wrap_output);
  w.boolean(c.include_identity);
}

CandidateConfig get_candidates(Reader& r) {
  CandidateConfig c;
  c.row_targets = r.i64_vec();
  c.cout_targets = r.i64_vec();
  c.crossbar_size = r.i64();
  c.spatial_slack = r.i64();
  c.wrap_output = r.boolean();
  c.include_identity = r.boolean();
  return c;
}

void put_precision_config(Writer& w, const PrecisionConfig& p) {
  w.i32_vec(p.weight_bits);
  w.i32(p.act_bits);
}

PrecisionConfig get_precision_config(Reader& r) {
  PrecisionConfig p;
  p.weight_bits = r.i32_vec();
  p.act_bits = r.i32();
  return p;
}

void put_pipeline_config(Writer& w, const PipelineConfig& c) {
  put_crossbar(w, c.hardware.crossbar);
  put_lut(w, c.hardware.lut);
  w.i32(c.hardware.deploy_adc_bits);
  put_design(w, c.design);
  w.u32(static_cast<std::uint32_t>(c.precision.mode));
  w.i32(c.precision.weight_bits);
  w.i32(c.precision.act_bits);
  put_mixed_config(w, c.precision.mixed);
  put_quant_config(w, c.quant);
  w.boolean(c.search.enabled);
  w.i32(c.search.evo.population);
  w.i32(c.search.evo.iterations);
  w.i32(c.search.evo.parents);
  w.f64(c.search.evo.mutation_rate);
  w.u32(static_cast<std::uint32_t>(c.search.evo.objective));
  w.i64(c.search.evo.crossbar_budget);
  put_candidates(w, c.search.evo.candidates);
  put_precision_config(w, c.search.evo.precision);
  w.u64(c.search.evo.seed);
  w.i32(c.deploy.weight_bits);
  w.i32(c.deploy.act_bits);
  w.f64(c.deploy.act_percentile);
  put_non_ideal(w, c.deploy.non_ideal);
  w.i32(c.serve.max_batch);
  w.f64(c.serve.flush_deadline_ms);
  w.i32(c.serve.workers);
  w.i32(c.serve.max_queue);
  // Scheduler knobs (SLA-aware scheduling core). This field order is the
  // schema v6 layout; the codec is positional, so a payload of any other
  // version cannot be decoded and is rejected by the version check.
  w.i32(c.serve.max_workers);
  w.boolean(c.serve.reslice_bursts);
  w.str(c.anchors.model);
  w.f64(c.anchors.conv_fp32);
  w.f64(c.anchors.epitome_fp32);
  w.f64(c.anchors.penalty_scale);
  w.f64(c.anchors.prune_penalty_scale);
  w.u32(static_cast<std::uint32_t>(c.backend));
  w.u64(c.seed);
}

PipelineConfig get_pipeline_config(Reader& r) {
  PipelineConfig c;
  c.hardware.crossbar = get_crossbar(r);
  c.hardware.lut = get_lut(r);
  c.hardware.deploy_adc_bits = r.i32();
  c.design = get_design(r);
  c.precision.mode = decode_enum(r.u32(), PrecisionMode::kHawqMixed);
  c.precision.weight_bits = r.i32();
  c.precision.act_bits = r.i32();
  c.precision.mixed = get_mixed_config(r);
  c.quant = get_quant_config(r);
  c.search.enabled = r.boolean();
  c.search.evo.population = r.i32();
  c.search.evo.iterations = r.i32();
  c.search.evo.parents = r.i32();
  c.search.evo.mutation_rate = r.f64();
  c.search.evo.objective = decode_enum(r.u32(), SearchObjective::kEdp);
  c.search.evo.crossbar_budget = r.i64();
  c.search.evo.candidates = get_candidates(r);
  c.search.evo.precision = get_precision_config(r);
  c.search.evo.seed = r.u64();
  c.deploy.weight_bits = r.i32();
  c.deploy.act_bits = r.i32();
  c.deploy.act_percentile = r.f64();
  c.deploy.non_ideal = get_non_ideal(r);
  c.serve.max_batch = r.i32();
  c.serve.flush_deadline_ms = r.f64();
  c.serve.workers = r.i32();
  c.serve.max_queue = r.i32();
  // Scheduler knobs (see the writer's matching comment).
  c.serve.max_workers = r.i32();
  c.serve.reslice_bursts = r.boolean();
  c.anchors.model = r.str();
  c.anchors.conv_fp32 = r.f64();
  c.anchors.epitome_fp32 = r.f64();
  c.anchors.penalty_scale = r.f64();
  c.anchors.prune_penalty_scale = r.f64();
  c.backend = decode_enum(r.u32(), BackendKind::kDatapath);
  c.seed = r.u64();
  return c;
}

void put_conv_spec(Writer& w, const ConvSpec& c) {
  w.i64(c.in_channels);
  w.i64(c.out_channels);
  w.i64(c.kernel_h);
  w.i64(c.kernel_w);
  w.i64(c.stride);
  w.i64(c.pad);
}

ConvSpec get_conv_spec(Reader& r) {
  ConvSpec c;
  c.in_channels = r.i64();
  c.out_channels = r.i64();
  c.kernel_h = r.i64();
  c.kernel_w = r.i64();
  c.stride = r.i64();
  c.pad = r.i64();
  return c;
}

void put_network(Writer& w, const Network& net) {
  w.str(net.name());
  w.u64(static_cast<std::uint64_t>(net.num_conv_layers()));
  for (const ConvLayerInfo& layer : net.conv_layers()) {
    w.str(layer.name);
    put_conv_spec(w, layer.conv);
    w.i64(layer.ifm_h);
    w.i64(layer.ifm_w);
  }
  w.boolean(net.has_fc());
  if (net.has_fc()) {
    w.str(net.fc().name);
    w.i64(net.fc().in_features);
    w.i64(net.fc().out_features);
  }
}

Network get_network(Reader& r) {
  Network net(r.str());
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    ConvLayerInfo layer;
    layer.name = r.str();
    layer.conv = get_conv_spec(r);
    layer.ifm_h = r.i64();
    layer.ifm_w = r.i64();
    net.add_conv(std::move(layer));
  }
  if (r.boolean()) {
    FcLayerInfo fc;
    fc.name = r.str();
    fc.in_features = r.i64();
    fc.out_features = r.i64();
    net.set_fc(std::move(fc));
  }
  return net;
}

void put_epitome_spec(Writer& w, const EpitomeSpec& s) {
  w.i64(s.p);
  w.i64(s.q);
  w.i64(s.cin_e);
  w.i64(s.cout_e);
  w.i64(s.offset_stride);
  w.boolean(s.wrap_output);
}

EpitomeSpec get_epitome_spec(Reader& r) {
  EpitomeSpec s;
  s.p = r.i64();
  s.q = r.i64();
  s.cin_e = r.i64();
  s.cout_e = r.i64();
  s.offset_stride = r.i64();
  s.wrap_output = r.boolean();
  return s;
}

void put_epitome(Writer& w, const Epitome& e) {
  put_epitome_spec(w, e.spec());
  put_conv_spec(w, e.conv());
  w.tensor(e.weights());
}

Epitome get_epitome(Reader& r) {
  const EpitomeSpec spec = get_epitome_spec(r);
  const ConvSpec conv = get_conv_spec(r);
  Tensor weights = r.tensor();
  Epitome e(spec, conv);
  EPIM_CHECK(weights.shape() == e.weights().shape(),
             "artifact epitome weight shape mismatch");
  e.weights() = std::move(weights);
  return e;
}

void put_affine(Writer& w, const ChannelAffine& a) {
  w.f32_vec(a.scale);
  w.f32_vec(a.shift);
}

ChannelAffine get_affine(Reader& r) {
  ChannelAffine a;
  a.scale = r.f32_vec();
  a.shift = r.f32_vec();
  EPIM_CHECK(a.scale.size() == a.shift.size(),
             "artifact affine scale/shift size mismatch");
  return a;
}

void put_quant_params(Writer& w, const QuantParams& p) {
  w.f64(p.scale);
  w.i64(p.zero_point);
  w.i32(p.bits);
}

QuantParams get_quant_params(Reader& r) {
  QuantParams p;
  p.scale = r.f64();
  p.zero_point = r.i64();
  p.bits = r.i32();
  return p;
}

void put_runtime_config(Writer& w, const RuntimeConfig& c) {
  w.i32(c.weight_bits);
  w.i32(c.act_bits);
  w.f64(c.act_percentile);
  put_crossbar(w, c.crossbar);
  put_non_ideal(w, c.non_ideal);
}

RuntimeConfig get_runtime_config(Reader& r) {
  RuntimeConfig c;
  c.weight_bits = r.i32();
  c.act_bits = r.i32();
  c.act_percentile = r.f64();
  c.crossbar = get_crossbar(r);
  c.non_ideal = get_non_ideal(r);
  return c;
}

void put_small_net_config(Writer& w, const SmallNetConfig& c) {
  w.i32(c.num_classes);
  w.i64(c.image_size);
  w.i64(c.in_channels);
  w.boolean(c.use_epitome);
  w.boolean(c.wrap_output);
  w.u64(c.seed);
}

SmallNetConfig get_small_net_config(Reader& r) {
  SmallNetConfig c;
  c.num_classes = r.i32();
  c.image_size = r.i64();
  c.in_channels = r.i64();
  c.use_epitome = r.boolean();
  c.wrap_output = r.boolean();
  c.seed = r.u64();
  return c;
}

void put_deploy_state(Writer& w, const SmallEpitomeNet::Deploy& d) {
  put_small_net_config(w, d.config);
  put_epitome(w, d.block1);
  put_epitome(w, d.block2);
  put_epitome(w, d.block3);
  put_affine(w, d.bn1);
  put_affine(w, d.bn2);
  put_affine(w, d.bn3);
  w.tensor(d.dense_w);
  w.tensor(d.dense_b);
}

SmallEpitomeNet::Deploy get_deploy_state(Reader& r) {
  SmallNetConfig config = get_small_net_config(r);
  Epitome b1 = get_epitome(r);
  Epitome b2 = get_epitome(r);
  Epitome b3 = get_epitome(r);
  ChannelAffine bn1 = get_affine(r);
  ChannelAffine bn2 = get_affine(r);
  ChannelAffine bn3 = get_affine(r);
  Tensor dense_w = r.tensor();
  Tensor dense_b = r.tensor();
  return SmallEpitomeNet::Deploy{config,
                                 std::move(b1),
                                 std::move(b2),
                                 std::move(b3),
                                 std::move(bn1),
                                 std::move(bn2),
                                 std::move(bn3),
                                 std::move(dense_w),
                                 std::move(dense_b)};
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

struct Section {
  std::string tag;  ///< at most 8 bytes, NUL-padded on disk
  std::vector<std::uint8_t> payload;
};

void write_container(const std::string& path, artifact::Kind kind,
                     const std::vector<Section>& sections) {
  // Atomic save: stream into a same-directory temp file, then rename over
  // the destination. A crash (or an armed artifact.write fault) mid-save
  // can therefore never leave a truncated container at `path` -- readers
  // see either the complete old artifact or the complete new one. The
  // counter keeps concurrent saves to the same path from clobbering each
  // other's temp file; last rename wins, each rename is whole.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp =
      path + ".tmp." +
      std::to_string(save_counter.fetch_add(1, std::memory_order_relaxed));
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    EPIM_CHECK(out.good(), "cannot open artifact path for writing: " + path);
    const auto emit = [&out](const Writer& w) {
      out.write(reinterpret_cast<const char*>(w.bytes().data()),
                static_cast<std::streamsize>(w.bytes().size()));
    };
    Writer header;
    for (char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
    header.u32(artifact::kSchemaVersion);
    header.u32(static_cast<std::uint32_t>(kind));
    header.u32(static_cast<std::uint32_t>(sections.size()));
    emit(header);
    // Section payloads stream straight to the file; the artifact is never
    // assembled a second time in memory.
    for (const Section& s : sections) {
      // Chaos hook: simulate a crash between sections -- exactly the
      // partial write the temp-file protocol exists to contain.
      fault::maybe_fail("artifact.write");
      EPIM_ASSERT(s.tag.size() <= 8, "artifact section tag too long");
      Writer sh;
      for (std::size_t i = 0; i < 8; ++i) {
        sh.u8(i < s.tag.size() ? static_cast<std::uint8_t>(s.tag[i]) : 0);
      }
      sh.u64(s.payload.size());
      sh.u64(fnv1a(s.payload.data(), s.payload.size()));
      emit(sh);
      out.write(reinterpret_cast<const char*>(s.payload.data()),
                static_cast<std::streamsize>(s.payload.size()));
    }
    out.flush();
    EPIM_CHECK(out.good(), "failed writing artifact: " + path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // best-effort; the throw is the news
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp, remove_ec);
    EPIM_CHECK(false, "failed writing artifact: " + path + " (rename: " +
                          ec.message() + ")");
  }
}

/// Reject paths an ifstream would "open" but never read sensibly (a
/// directory opens fine on POSIX and only fails at the first read, which
/// would surface as a misleading kErrTruncated). Pinned messages:
/// nonexistent -> kErrCannotOpen, directory/device -> kErrNotFile.
void check_readable_file(const std::string& path) {
  // Chaos hook: a failed open (permissions, unmounted volume) happens here,
  // before any filesystem call.
  fault::maybe_fail("artifact.open");
  std::error_code ec;
  const std::filesystem::file_status status =
      std::filesystem::status(path, ec);
  EPIM_CHECK(!ec && std::filesystem::exists(status),
             std::string(artifact::kErrCannotOpen) + ": " + path);
  EPIM_CHECK(std::filesystem::is_regular_file(status),
             std::string(artifact::kErrNotFile) + ": " + path);
}

/// Whole-file slurp: one sized read of file_size bytes; the caller has
/// already run check_readable_file(). A short read (the file shrank under
/// us) keeps only what arrived, so header/section parsing reports it with
/// the pinned kErrTruncated.
std::vector<std::uint8_t> slurp_file(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  EPIM_CHECK(!ec && in.good(),
             std::string(artifact::kErrCannotOpen) + ": " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

void check_header(const std::uint8_t* data, std::size_t size) {
  EPIM_CHECK(size >= kHeaderBytes, kErrTruncated);
  EPIM_CHECK(std::memcmp(data, kMagic, 8) == 0, kErrBadMagic);
}

/// Parsed .epim container: the file is slurped, the section table fully
/// bounds-checked and every section's FNV-1a checksum verified before any
/// payload is decoded, so a corrupt artifact is rejected with the pinned
/// kErrChecksum up front.
class Container {
 public:
  Container(const std::string& path, artifact::Kind expected_kind)
      : bytes_((check_readable_file(path), slurp_file(path))) {
    // Chaos hook: an I/O error mid-read (truncated slurp, yanked disk).
    fault::maybe_fail("artifact.read");
    parse(expected_kind);
    for (const SectionView& s : sections_) validate(s);
  }

  /// Decoder positioned at the start of the section tagged `tag`.
  Reader reader(const std::string& tag) const {
    for (const SectionView& s : sections_) {
      if (s.tag == tag) return Reader(s.data, s.size);
    }
    EPIM_CHECK(false, "artifact is missing section '" + tag + "'");
    // Unreachable; EPIM_CHECK(false, ...) always throws.
    throw InternalError("unreachable");
  }

 private:
  struct SectionView {
    std::string tag;  ///< NUL padding stripped
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    std::uint64_t checksum = 0;
  };

  /// Header + section-table walk, bounds-checking every section against
  /// the file size.
  void parse(artifact::Kind expected_kind) {
    const std::uint8_t* data = bytes_.data();
    const std::size_t file_size = bytes_.size();
    check_header(data, file_size);
    Reader header(data, file_size);
    for (int i = 0; i < 8; ++i) header.u8();  // magic, already checked
    const std::uint32_t version = header.u32();
    EPIM_CHECK(version == artifact::kSchemaVersion, kErrBadVersion);
    const std::uint32_t kind = header.u32();
    EPIM_CHECK(kind == static_cast<std::uint32_t>(expected_kind),
               kErrBadKind);
    const std::uint32_t count = header.u32();

    std::size_t pos = kHeaderBytes;
    for (std::uint32_t s = 0; s < count; ++s) {
      EPIM_CHECK(file_size - pos >= kSectionHeaderBytes, kErrTruncated);
      Reader sh(data + pos, kSectionHeaderBytes);
      SectionView view;
      for (int i = 0; i < 8; ++i) {
        const char c = static_cast<char>(sh.u8());
        if (c != '\0') view.tag.push_back(c);
      }
      const std::uint64_t size = sh.u64();
      view.checksum = sh.u64();
      pos += kSectionHeaderBytes;
      EPIM_CHECK(size <= file_size - pos, kErrTruncated);
      view.data = data + pos;
      view.size = static_cast<std::size_t>(size);
      pos += view.size;
      sections_.push_back(std::move(view));
    }
  }

  static void validate(const SectionView& s) {
    // Chaos hook folded into the verification itself: a firing
    // artifact.checksum fault takes the REAL corruption-rejection path and
    // raises the same pinned kErrChecksum as flipped bits on disk would.
    EPIM_CHECK(!fault::should_fire("artifact.checksum") &&
                   fnv1a(s.data, s.size) == s.checksum,
               kErrChecksum);
  }

  std::vector<std::uint8_t> bytes_;
  std::vector<SectionView> sections_;
};

/// A fully-decoded section must have no bytes left: a checksummed-but-longer
/// payload means the writer's schema drifted past this reader's.
void expect_exhausted(const Reader& r, const char* tag) {
  EPIM_CHECK(r.exhausted(), std::string("artifact section '") + tag +
                                "' has trailing bytes");
}

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactCodec
// ---------------------------------------------------------------------------

void ArtifactCodec::save_compiled(const CompiledModel& model,
                                  const std::string& path) {
  std::vector<Section> sections;
  {
    Writer w;
    put_pipeline_config(w, *model.config_);
    sections.push_back({"pipecfg", w.bytes()});
  }
  {
    Writer w;
    put_design(w, model.design_);
    sections.push_back({"design", w.bytes()});
  }
  {
    Writer w;
    put_network(w, *model.net_);
    sections.push_back({"network", w.bytes()});
  }
  {
    Writer w;
    const NetworkAssignment& a = model.assignment_;
    w.u64(static_cast<std::uint64_t>(a.num_layers()));
    for (std::int64_t i = 0; i < a.num_layers(); ++i) {
      const auto& choice = a.choice(i);
      w.boolean(choice.has_value());
      if (choice.has_value()) put_epitome_spec(w, *choice);
    }
    w.boolean(model.searched_);
    sections.push_back({"assign", w.bytes()});
  }
  {
    Writer w;
    put_precision_config(w, model.precision_);
    sections.push_back({"precis", w.bytes()});
  }
  write_container(path, artifact::Kind::kCompiledModel, sections);
}

CompiledModel ArtifactCodec::load_compiled(const std::string& path) {
  Container container(path, artifact::Kind::kCompiledModel);

  Reader cfg_r = container.reader("pipecfg");
  const PipelineConfig cfg = get_pipeline_config(cfg_r);
  expect_exhausted(cfg_r, "pipecfg");
  Reader design_r = container.reader("design");
  const DesignConfig design = get_design(design_r);
  expect_exhausted(design_r, "design");
  Reader net_r = container.reader("network");
  const Network net = get_network(net_r);
  expect_exhausted(net_r, "network");

  Reader assign_r = container.reader("assign");
  const std::uint64_t n_layers = assign_r.u64();
  std::vector<std::optional<EpitomeSpec>> choices;
  choices.reserve(static_cast<std::size_t>(n_layers));
  for (std::uint64_t i = 0; i < n_layers; ++i) {
    if (assign_r.boolean()) {
      choices.push_back(get_epitome_spec(assign_r));
    } else {
      choices.push_back(std::nullopt);
    }
  }
  const bool searched = assign_r.boolean();
  expect_exhausted(assign_r, "assign");

  Reader precis_r = container.reader("precis");
  const PrecisionConfig stored_precision = get_precision_config(precis_r);
  expect_exhausted(precis_r, "precis");

  // Rebuild the pipeline (validates the config, constructs backend +
  // estimator) and compile under the stored design, then overwrite the
  // designed assignment with the stored per-layer choices (which may carry a
  // search() refinement the design policy alone would not reproduce).
  Pipeline pipeline(cfg);
  CompiledModel model = pipeline.compile(net, design);
  EPIM_CHECK(static_cast<std::int64_t>(n_layers) ==
                 model.assignment_.num_layers(),
             "artifact assignment layer count mismatch");
  for (std::int64_t i = 0; i < model.assignment_.num_layers(); ++i) {
    model.assignment_.set_choice(i, choices[static_cast<std::size_t>(i)]);
  }
  model.searched_ = searched;
  model.resolve_precision();
  model.estimate_cache_.reset();
  // Precision is re-resolved deterministically from the assignment; the
  // stored plan is a redundancy check against schema drift.
  EPIM_CHECK(model.precision_.weight_bits == stored_precision.weight_bits &&
                 model.precision_.act_bits == stored_precision.act_bits,
             "artifact precision plan does not match re-resolved plan");
  return model;
}

void ArtifactCodec::save_deployed(const DeployedModel& model,
                                  const std::string& path) {
  const PimNetworkRuntime& runtime = *model.runtime_;
  std::vector<Section> sections;
  {
    Writer w;
    put_runtime_config(w, runtime.config());
    sections.push_back({"runcfg", w.bytes()});
  }
  {
    Writer w;
    put_deploy_state(w, runtime.deploy_state());
    sections.push_back({"model", w.bytes()});
  }
  {
    Writer w;
    for (const QuantParams& p : runtime.activation_params()) {
      put_quant_params(w, p);
    }
    sections.push_back({"actq", w.bytes()});
  }
  write_container(path, artifact::Kind::kDeployedModel, sections);
}

DeployedModel ArtifactCodec::load_deployed(const std::string& path) {
  Container container(path, artifact::Kind::kDeployedModel);
  Reader cfg_r = container.reader("runcfg");
  const RuntimeConfig config = get_runtime_config(cfg_r);
  expect_exhausted(cfg_r, "runcfg");
  Reader model_r = container.reader("model");
  SmallEpitomeNet::Deploy deploy = get_deploy_state(model_r);
  expect_exhausted(model_r, "model");
  Reader actq_r = container.reader("actq");
  PimNetworkRuntime::ActivationParams act_params;
  for (QuantParams& p : act_params) p = get_quant_params(actq_r);
  expect_exhausted(actq_r, "actq");

  auto runtime = std::make_unique<PimNetworkRuntime>(std::move(deploy),
                                                     act_params, config);
  return DeployedModel(config, std::move(runtime));
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

namespace artifact {

Info probe(const std::string& path) {
  // Header only -- probing a multi-megabyte deployed artifact must not
  // slurp the weights.
  check_readable_file(path);
  std::ifstream in(path, std::ios::binary);
  EPIM_CHECK(in.good(), std::string(kErrCannotOpen) + ": " + path);
  std::vector<std::uint8_t> bytes(kHeaderBytes);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  check_header(bytes.data(), bytes.size());
  Reader r(bytes.data(), bytes.size());
  for (int i = 0; i < 8; ++i) r.u8();
  Info info;
  info.version = r.u32();
  const std::uint32_t kind = r.u32();
  EPIM_CHECK(kind == static_cast<std::uint32_t>(Kind::kCompiledModel) ||
                 kind == static_cast<std::uint32_t>(Kind::kDeployedModel),
             kErrBadKind);
  info.kind = static_cast<Kind>(kind);
  return info;
}

void save(const CompiledModel& model, const std::string& path) {
  ArtifactCodec::save_compiled(model, path);
}

void save(const DeployedModel& model, const std::string& path) {
  ArtifactCodec::save_deployed(model, path);
}

CompiledModel load_compiled(const std::string& path) {
  return ArtifactCodec::load_compiled(path);
}

DeployedModel load_deployed(const std::string& path) {
  return ArtifactCodec::load_deployed(path);
}

}  // namespace artifact

// Façade forwarding: declared in pipeline/pipeline.hpp, implemented here so
// the pipeline layer stays ignorant of the container format.

void CompiledModel::save(const std::string& path) const {
  ArtifactCodec::save_compiled(*this, path);
}

void DeployedModel::save(const std::string& path) const {
  ArtifactCodec::save_deployed(*this, path);
}

CompiledModel Pipeline::load(const std::string& path) {
  return ArtifactCodec::load_compiled(path);
}

DeployedModel Pipeline::load_deployed(const std::string& path) {
  return ArtifactCodec::load_deployed(path);
}

}  // namespace epim
