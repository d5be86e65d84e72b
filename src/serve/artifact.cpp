#include "serve/artifact.hpp"

#include <atomic>
#include <bit>
#include <concepts>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <random>
#include <sstream>
#include <tuple>
#include <type_traits>
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
// Little-endian archives
// ---------------------------------------------------------------------------

/// Largest valid value of each serialized enum; decoding rejects anything
/// past it.
constexpr std::tuple kLastEnumerators{
    RangeScheme::kOverlapWeighted, DesignPolicy::kUniform,
    PrecisionMode::kHawqMixed, SearchObjective::kEdp, BackendKind::kDatapath};

template <typename E>
E decode_enum(std::uint32_t raw) {
  EPIM_CHECK(raw <= static_cast<std::uint32_t>(std::get<E>(kLastEnumerators)),
             "artifact enum value out of range");
  return static_cast<E>(raw);
}

// Writer and Reader encode a field by its type: int -> i32, int64 -> i64,
// uint64 -> u64, double -> f64, bool -> u8, enum -> u32; strings, vectors
// and tensors carry a u64 count. Any other type is an aggregate, handed to
// its fields() template below, so a field of an unlisted scalar type (float,
// unsigned) fails to compile instead of being converted.

class Writer {
 public:
  template <class... T>
  void operator()(const T&... values) {
    (put(values), ...);
  }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xffu);
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  void put(int v) { u32(static_cast<std::uint32_t>(v)); }
  void put(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void put(std::uint64_t v) { u64(v); }
  void put(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void put(bool v) { u8(v ? 1 : 0); }
  void put(const std::string& s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  void put(const std::vector<float>& v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
      // Weight tensors dominate artifact size; bulk-append them instead of
      // shifting out four bytes per element.
      const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
      bytes_.insert(bytes_.end(), raw, raw + v.size() * sizeof(float));
    } else {
      for (float x : v) u32(std::bit_cast<std::uint32_t>(x));
    }
  }
  void put(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (std::int64_t x : v) put(x);
  }
  void put(const std::vector<int>& v) {
    u64(v.size());
    for (int x : v) put(x);
  }
  void put(const Tensor& t) {
    put(t.shape());
    put(t.storage());
  }
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      u32(static_cast<std::uint32_t>(v));
    } else {
      fields(*this, v);
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <class... T>
  void operator()(T&... values) {
    (get(values), ...);
  }
  template <class T>
  T read() {
    T v{};
    get(v);
    return v;
  }

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
  /// Read an element count and bounds-check it against the remaining bytes
  /// before allocating (a corrupted-but-checksummed count must not OOM).
  std::size_t count(std::uint64_t elem_bytes) {
    const std::uint64_t n = u64();
    EPIM_CHECK(n <= (size_ - pos_) / elem_bytes,
               "artifact section payload exhausted");
    return static_cast<std::size_t>(n);
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  void get(int& v) { v = static_cast<std::int32_t>(u32()); }
  void get(std::int64_t& v) { v = static_cast<std::int64_t>(u64()); }
  void get(std::uint64_t& v) { v = u64(); }
  void get(double& v) { v = std::bit_cast<double>(u64()); }
  void get(bool& v) { v = u8() != 0; }
  void get(std::string& s) {
    const std::size_t n = count(1);
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
  }
  void get(std::vector<float>& v) {
    v.resize(count(sizeof(float)));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(float));
      pos_ += v.size() * sizeof(float);
    } else {
      for (float& x : v) x = std::bit_cast<float>(u32());
    }
  }
  void get(std::vector<std::int64_t>& v) {
    v.resize(count(8));
    for (std::int64_t& x : v) get(x);
  }
  void get(std::vector<int>& v) {
    v.resize(count(4));
    for (int& x : v) get(x);
  }
  void get(Tensor& t) {
    Shape shape;
    std::vector<float> data;
    get(shape);
    get(data);
    EPIM_CHECK(shape_numel(shape) == static_cast<std::int64_t>(data.size()),
               "artifact tensor shape/data size mismatch");
    t = Tensor(std::move(shape), std::move(data));
  }
  template <class T>
  void get(T& v) {
    if constexpr (std::is_enum_v<T>) {
      v = decode_enum<T>(u32());
    } else {
      fields(*this, v);
    }
  }

  void need(std::uint64_t n) {
    EPIM_CHECK(n <= size_ - pos_, "artifact section payload exhausted");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field templates: each is both the writer and the reader, and its field
// order is the schema.
// ---------------------------------------------------------------------------

/// `C` is `S` (instantiated by Reader) or `const S` (by Writer).
template <class C, class S>
concept FieldsOf = std::same_as<std::remove_const_t<C>, S>;

template <class Ar, FieldsOf<CrossbarConfig> C>
void fields(Ar& a, C& c) {
  a(c.rows, c.cols, c.cell_bits, c.adc_bits, c.adc_share, c.fp32_weight_bits,
    c.fp32_act_bits);
}

template <class Ar, FieldsOf<HardwareLut> C>
void fields(Ar& a, C& l) {
  a(l.dac_ns, l.xbar_ns, l.sh_ns, l.adc_ns, l.shift_add_ns, l.index_table_ns,
    l.joint_add_ns, l.buffer_copy_ns, l.dac_pj, l.cell_pj, l.sh_pj, l.adc_pj,
    l.shift_add_pj, l.buffer_rd_pj, l.buffer_wr_pj, l.index_table_pj,
    l.joint_add_pj, l.leakage_mw_per_xbar);
}

template <class Ar, FieldsOf<NonIdealityConfig> C>
void fields(Ar& a, C& n) {
  a(n.conductance_sigma, n.stuck_at_zero_prob, n.stuck_at_max_prob, n.seed);
}

template <class Ar, FieldsOf<QuantConfig> C>
void fields(Ar& a, C& q) {
  a(q.bits, q.scheme, q.w1, q.w2, q.xbar_rows, q.xbar_cols);
}

template <class Ar, FieldsOf<MixedPrecisionConfig> C>
void fields(Ar& a, C& m) {
  a(m.low_bits, m.high_bits, m.budget_fraction, m.quant, m.seed);
}

template <class Ar, FieldsOf<UniformDesign> C>
void fields(Ar& a, C& u) {
  a(u.target_rows, u.target_cout, u.crossbar_size, u.spatial_slack,
    u.wrap_output, u.skip_small_layers);
}

template <class Ar, FieldsOf<DesignConfig> C>
void fields(Ar& a, C& d) {
  a(d.policy, d.uniform, d.wrap_output);
}

template <class Ar, FieldsOf<CandidateConfig> C>
void fields(Ar& a, C& c) {
  a(c.row_targets, c.cout_targets, c.crossbar_size, c.spatial_slack,
    c.wrap_output, c.include_identity);
}

template <class Ar, FieldsOf<PrecisionConfig> C>
void fields(Ar& a, C& p) {
  a(p.weight_bits, p.act_bits);
}

template <class Ar, FieldsOf<PipelineConfig> C>
void fields(Ar& a, C& c) {
  a(c.hardware.crossbar, c.hardware.lut, c.hardware.deploy_adc_bits);
  a(c.design);
  a(c.precision.mode, c.precision.weight_bits, c.precision.act_bits,
    c.precision.mixed);
  a(c.quant);
  auto& evo = c.search.evo;
  a(c.search.enabled, evo.population, evo.iterations, evo.parents,
    evo.mutation_rate, evo.objective, evo.crossbar_budget, evo.candidates,
    evo.precision, evo.seed);
  a(c.deploy.weight_bits, c.deploy.act_bits, c.deploy.act_percentile,
    c.deploy.non_ideal);
  // ServeConfig, one field per line: the schema v6 layout.
  a(c.serve.max_batch);
  a(c.serve.flush_deadline_ms);
  a(c.serve.workers);
  a(c.serve.max_queue);
  a(c.serve.max_workers);
  a(c.serve.reslice_bursts);
  a(c.anchors.model, c.anchors.conv_fp32, c.anchors.epitome_fp32,
    c.anchors.penalty_scale, c.anchors.prune_penalty_scale);
  a(c.backend, c.seed);
}

template <class Ar, FieldsOf<ConvSpec> C>
void fields(Ar& a, C& c) {
  a(c.in_channels, c.out_channels, c.kernel_h, c.kernel_w, c.stride, c.pad);
}

template <class Ar, FieldsOf<ConvLayerInfo> C>
void fields(Ar& a, C& l) {
  a(l.name, l.conv, l.ifm_h, l.ifm_w);
}

template <class Ar, FieldsOf<FcLayerInfo> C>
void fields(Ar& a, C& f) {
  a(f.name, f.in_features, f.out_features);
}

template <class Ar, FieldsOf<EpitomeSpec> C>
void fields(Ar& a, C& s) {
  a(s.p, s.q, s.cin_e, s.cout_e, s.offset_stride, s.wrap_output);
}

template <class Ar, FieldsOf<ChannelAffine> C>
void fields(Ar& a, C& x) {
  a(x.scale, x.shift);
  EPIM_CHECK(x.scale.size() == x.shift.size(),
             "artifact affine scale/shift size mismatch");
}

template <class Ar, FieldsOf<QuantParams> C>
void fields(Ar& a, C& p) {
  a(p.scale, p.zero_point, p.bits);
}

template <class Ar, FieldsOf<RuntimeConfig> C>
void fields(Ar& a, C& c) {
  a(c.weight_bits, c.act_bits, c.act_percentile, c.crossbar, c.non_ideal);
}

template <class Ar, FieldsOf<SmallNetConfig> C>
void fields(Ar& a, C& c) {
  a(c.num_classes, c.image_size, c.in_channels, c.use_epitome, c.wrap_output,
    c.seed);
}

// Types built through constructors keep a separate read side.

void put_network(Writer& w, const Network& net) {
  w(net.name(), static_cast<std::uint64_t>(net.num_conv_layers()));
  for (const ConvLayerInfo& layer : net.conv_layers()) w(layer);
  w(net.has_fc());
  if (net.has_fc()) w(net.fc());
}

Network get_network(Reader& r) {
  Network net(r.read<std::string>());
  for (std::size_t n = r.count(1); n > 0; --n) {
    net.add_conv(r.read<ConvLayerInfo>());
  }
  if (r.read<bool>()) net.set_fc(r.read<FcLayerInfo>());
  return net;
}

void put_epitome(Writer& w, const Epitome& e) {
  w(e.spec(), e.conv(), e.weights());
}

Epitome get_epitome(Reader& r) {
  const auto spec = r.read<EpitomeSpec>();
  const auto conv = r.read<ConvSpec>();
  Tensor weights = r.read<Tensor>();
  Epitome e(spec, conv);
  EPIM_CHECK(weights.shape() == e.weights().shape(),
             "artifact epitome weight shape mismatch");
  e.weights() = std::move(weights);
  return e;
}

void put_deploy_state(Writer& w, const SmallEpitomeNet::Deploy& d) {
  w(d.config);
  for (const Epitome* e : {&d.block1, &d.block2, &d.block3}) put_epitome(w, *e);
  w(d.bn1, d.bn2, d.bn3, d.dense_w, d.dense_b);
}

SmallEpitomeNet::Deploy get_deploy_state(Reader& r) {
  // A braced initializer evaluates left to right: this is the field order.
  return SmallEpitomeNet::Deploy{
      r.read<SmallNetConfig>(), get_epitome(r), get_epitome(r), get_epitome(r),
      r.read<ChannelAffine>(), r.read<ChannelAffine>(), r.read<ChannelAffine>(),
      r.read<Tensor>(), r.read<Tensor>()};
}

/// The assign section: per-layer epitome choices plus the searched flag.
struct StoredAssignment {
  std::vector<std::optional<EpitomeSpec>> choices;
  bool searched = false;
};

void put_assignment(Writer& w, const NetworkAssignment& a, bool searched) {
  w(static_cast<std::uint64_t>(a.num_layers()));
  for (std::int64_t i = 0; i < a.num_layers(); ++i) {
    const auto& choice = a.choice(i);
    w(choice.has_value());
    if (choice.has_value()) w(*choice);
  }
  w(searched);
}

StoredAssignment get_assignment(Reader& r) {
  StoredAssignment a;
  // At least one byte (the has-choice flag) per layer.
  a.choices.resize(r.count(1));
  for (std::optional<EpitomeSpec>& choice : a.choices) {
    if (r.read<bool>()) choice = r.read<EpitomeSpec>();
  }
  r(a.searched);
  return a;
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

struct Section {
  std::string tag;  ///< at most 8 bytes, NUL-padded on disk
  std::vector<std::uint8_t> payload;
};

/// One section whose payload is `values` encoded back to back.
template <class... T>
Section encode(const char* tag, const T&... values) {
  Writer w;
  w(values...);
  return {tag, std::move(w).take()};
}

void write_container(const std::string& path, artifact::Kind kind,
                     std::initializer_list<Section> sections) {
  // Atomic save: stream into a same-directory temp file, then rename over
  // the destination. A crash (or an armed artifact.write fault) mid-save
  // can therefore never leave a truncated container at `path` -- readers
  // see either the complete old artifact or the complete new one. The temp
  // name carries a random token drawn once per process plus a per-process
  // counter, so concurrent saves to the same path -- from this process or
  // another -- never share a temp file; last rename wins, each whole.
  static const std::string process_token = [] {
    std::random_device rd;
    const std::uint64_t token = (std::uint64_t{rd()} << 32) | rd();
    std::ostringstream hex;
    hex << std::hex << token;
    return hex.str();
  }();
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp =
      path + ".tmp." + process_token + "." +
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

  /// Decode the section tagged `tag` with `get(Reader&)`. A fully-decoded
  /// section must have no bytes left: a checksummed-but-longer payload means
  /// the writer's schema drifted past this reader's.
  template <class T, class F>
  T decode(const char* tag, F get) const {
    Reader r = reader(tag);
    T value = get(r);
    EPIM_CHECK(r.exhausted(), std::string("artifact section '") + tag +
                                  "' has trailing bytes");
    return value;
  }
  template <class T>
  T decode(const char* tag) const {
    return decode<T>(tag, [](Reader& r) { return r.read<T>(); });
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

}  // namespace

// ---------------------------------------------------------------------------
// ArtifactCodec
// ---------------------------------------------------------------------------

void ArtifactCodec::save_compiled(const CompiledModel& model,
                                  const std::string& path) {
  Writer network;
  put_network(network, *model.net_);
  Writer assign;
  put_assignment(assign, model.assignment_, model.searched_);
  write_container(path, artifact::Kind::kCompiledModel,
                  {encode("pipecfg", *model.config_),
                   encode("design", model.design_),
                   {"network", std::move(network).take()},
                   {"assign", std::move(assign).take()},
                   encode("precis", model.precision_)});
}

CompiledModel ArtifactCodec::load_compiled(const std::string& path) {
  Container container(path, artifact::Kind::kCompiledModel);
  const auto cfg = container.decode<PipelineConfig>("pipecfg");
  const auto design = container.decode<DesignConfig>("design");
  const auto net = container.decode<Network>("network", get_network);
  const auto stored =
      container.decode<StoredAssignment>("assign", get_assignment);
  const auto stored_precision = container.decode<PrecisionConfig>("precis");

  // Rebuild the pipeline (validates the config, constructs backend +
  // estimator) and compile under the stored design, then overwrite the
  // designed assignment with the stored per-layer choices (which may carry a
  // search() refinement the design policy alone would not reproduce).
  Pipeline pipeline(cfg);
  CompiledModel model = pipeline.compile(net, design);
  EPIM_CHECK(static_cast<std::int64_t>(stored.choices.size()) ==
                 model.assignment_.num_layers(),
             "artifact assignment layer count mismatch");
  for (std::int64_t i = 0; i < model.assignment_.num_layers(); ++i) {
    model.assignment_.set_choice(i,
                                 stored.choices[static_cast<std::size_t>(i)]);
  }
  model.searched_ = stored.searched;
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
  Writer deploy;
  put_deploy_state(deploy, runtime.deploy_state());
  Writer actq;
  for (const QuantParams& p : runtime.activation_params()) actq(p);
  write_container(path, artifact::Kind::kDeployedModel,
                  {encode("runcfg", runtime.config()),
                   {"model", std::move(deploy).take()},
                   {"actq", std::move(actq).take()}});
}

DeployedModel ArtifactCodec::load_deployed(const std::string& path) {
  using ActivationParams = PimNetworkRuntime::ActivationParams;
  Container container(path, artifact::Kind::kDeployedModel);
  const auto config = container.decode<RuntimeConfig>("runcfg");
  auto deploy =
      container.decode<SmallEpitomeNet::Deploy>("model", get_deploy_state);
  const auto act_params =
      container.decode<ActivationParams>("actq", [](Reader& r) {
        ActivationParams params;
        for (QuantParams& p : params) r(p);
        return params;
      });

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
