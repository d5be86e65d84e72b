// The three datapath index tables of EPIM (paper Sec. 4.3, Fig. 2(b)).
//
// * IFAT (Input Feature Address Table): one start/stop index pair per
//   activation round, locating the input-channel segment the round's patch
//   consumes. One entry per crossbar-activation round.
// * IFRT (Input Feature Row Table): one sequence per round, with one entry
//   per crossbar word line: either the position of the input element to
//   drive onto that word line, or "inactive" (the word line's voltage is
//   held at zero because its weights are not part of this patch).
// * OFAT (Output Feature Address Table): one start/stop pair per patch,
//   locating the result within the output feature map. The joint module adds
//   outputs with identical index pairs (partial sums across input groups)
//   and concatenates those with sequential pairs (output groups); wrapped
//   replicas copy a source round's result instead (Sec. 5.3).
#pragma once

#include <cstdint>
#include <vector>

#include "core/sample_plan.hpp"

namespace epim {

/// IFAT entry: input channels [ci_start, ci_stop) feed the round.
struct IfatEntry {
  std::int64_t round = 0;
  std::int64_t ci_start = 0;
  std::int64_t ci_stop = 0;
};

/// OFAT entry: the patch's result lands in output channels
/// [co_start, co_stop). `accumulate` marks partial sums to be added to what
/// is already in the buffer (true for every input group after the first);
/// `replica_of` >= 0 marks a channel-wrapping copy of a previous round.
struct OfatEntry {
  std::int64_t round = 0;
  std::int64_t co_start = 0;
  std::int64_t co_stop = 0;
  bool accumulate = false;
  std::int64_t replica_of = -1;
};

/// One IFRT sequence: for every epitome word line, the index into the
/// round's gathered input segment, or kInactiveRow.
struct IfrtSequence {
  static constexpr std::int32_t kInactiveRow = -1;
  std::vector<std::int32_t> row_to_input;

  std::int64_t active_rows() const;
};

/// All three tables for one (epitome, convolution) pair.
class IndexTables {
 public:
  explicit IndexTables(const SamplePlan& plan);

  const std::vector<IfatEntry>& ifat() const { return ifat_; }
  const std::vector<OfatEntry>& ofat() const { return ofat_; }
  /// One sequence per *active* round, indexed by round id.
  const std::vector<IfrtSequence>& ifrt() const { return ifrt_; }

  std::int64_t epitome_rows() const { return rows_; }

  /// Output width of an active round: the co_len of the primary patch that
  /// computes it (the span its OFAT entry, and every replica, draws from).
  std::int64_t co_len(std::int64_t round) const {
    return co_len_[static_cast<std::size_t>(round)];
  }

  /// Total storage the tables require, in entries (for the datapath-overhead
  /// ablation): IFAT/OFAT pairs plus IFRT sequence elements.
  std::int64_t storage_entries() const;

 private:
  std::vector<IfatEntry> ifat_;
  std::vector<OfatEntry> ofat_;
  std::vector<IfrtSequence> ifrt_;
  std::vector<std::int64_t> co_len_;  ///< per active round
  std::int64_t rows_ = 0;
};

}  // namespace epim
