#include "datapath/index_tables.hpp"

#include "common/check.hpp"

namespace epim {

std::int64_t IfrtSequence::active_rows() const {
  std::int64_t n = 0;
  for (const std::int32_t v : row_to_input) n += (v != kInactiveRow) ? 1 : 0;
  return n;
}

IndexTables::IndexTables(const SamplePlan& plan) {
  const EpitomeSpec& spec = plan.spec();
  const ConvSpec& conv = plan.conv();
  rows_ = spec.rows();
  ifrt_.resize(static_cast<std::size_t>(plan.active_rounds()));
  co_len_.resize(ifrt_.size(), 0);

  for (const PatchSample& s : plan.samples()) {
    if (s.replicated) {
      // Wrapped replica: only an OFAT entry pointing at the source round.
      // Like its source, it accumulates when it is not the first input group
      // contributing to its output span.
      ofat_.push_back({s.round, s.co_begin, s.co_begin + s.co_len,
                       /*accumulate=*/s.in_group > 0, /*replica_of=*/s.round});
      continue;
    }
    ifat_.push_back({s.round, s.ci_begin, s.ci_begin + s.ci_len});
    ofat_.push_back({s.round, s.co_begin, s.co_begin + s.co_len,
                     /*accumulate=*/s.in_group > 0, /*replica_of=*/-1});
    co_len_[static_cast<std::size_t>(s.round)] = s.co_len;

    // IFRT: word line (e_ci, py, qx) -> index into the gathered input
    // segment, which is laid out as (channel, ky, kx) row-major.
    IfrtSequence& seq = ifrt_[static_cast<std::size_t>(s.round)];
    seq.row_to_input.assign(static_cast<std::size_t>(rows_),
                            IfrtSequence::kInactiveRow);
    for (std::int64_t e_ci = 0; e_ci < s.ci_len; ++e_ci) {
      for (std::int64_t ky = 0; ky < conv.kernel_h; ++ky) {
        for (std::int64_t kx = 0; kx < conv.kernel_w; ++kx) {
          const std::int64_t word_line =
              (e_ci * spec.p + (s.off_p + ky)) * spec.q + (s.off_q + kx);
          const std::int64_t input_idx =
              (e_ci * conv.kernel_h + ky) * conv.kernel_w + kx;
          seq.row_to_input[static_cast<std::size_t>(word_line)] =
              static_cast<std::int32_t>(input_idx);
        }
      }
    }
  }
  EPIM_ASSERT(static_cast<std::int64_t>(ifat_.size()) == plan.active_rounds(),
              "one IFAT entry per active round");
}

std::int64_t IndexTables::storage_entries() const {
  std::int64_t n = static_cast<std::int64_t>(ifat_.size()) * 2 +
                   static_cast<std::int64_t>(ofat_.size()) * 2;
  for (const auto& seq : ifrt_) {
    n += static_cast<std::int64_t>(seq.row_to_input.size());
  }
  return n;
}

}  // namespace epim
