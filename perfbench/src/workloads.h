// The benchmark's three workloads, generated from a seed. The system under
// test only ever sees the generated inputs: `.soc` files written under the
// run's work directory and request lines in the service/request.h grammar.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class WorkloadInputs {
 public:
  // serve-repeat: 4 generated 64-core SOCs x widths {16,24,32,48}, schedule
  // mode; requests draw uniformly from the 16 lines.
  static WorkloadInputs ServeRepeat(std::uint64_t seed, const std::string& dir);

  // serve-variants: a generated 64-core base SOC; request k is the base with
  // one core's pattern count raised by 1 + k, so no two requests name the
  // same SOC (or the same edited core), at width 32 in schedule mode.
  static WorkloadInputs ServeVariants(std::uint64_t seed, const std::string& dir);

  // batch-search: schedule search=1 / improve / sweep requests over d695,
  // p22810s, p34392s, p93791s and generated 24- and 64-core SOCs, widths and
  // parameters drawn by seed.
  static WorkloadInputs BatchSearch(std::uint64_t seed, const std::string& dir);

  // The k-th request of the stream: the id its answer is checked under
  // (serve-repeat: the line's position among the 16; serve-variants: k) and
  // its request line. For serve-variants this first writes the variant's
  // .soc file, into a ring of kVariantFiles slots — far more than can ever
  // be in flight, so a slot is only rewritten long after it was answered.
  int Id(std::int64_t k) const;
  std::string Line(std::int64_t k) const;

  // The first n requests' lines, in order (serve-variants: n <= kVariantFiles).
  std::vector<std::string> Stream(std::int64_t n) const;

  // Distinct lines (serve-repeat: the 16; batch-search: the request list).
  const std::vector<std::string>& lines() const { return lines_; }
  // Lines answered during set-up so the timed phase starts warm.
  const std::vector<std::string>& warm() const { return warm_; }

  static constexpr int kVariantFiles = 4096;

 private:
  std::vector<std::string> lines_;
  std::vector<std::string> warm_;
  std::vector<int> order_;  // serve-repeat: line ids in send order, cycled

  // serve-variants.
  std::string dir_;
  std::uint64_t variant_seed_ = 0;
  std::string base_text_;
  // Per core: where its "  patterns <n>" line sits in base_text_, and n.
  std::vector<std::pair<std::size_t, std::size_t>> pattern_lines_;
  std::vector<long long> base_patterns_;
};

}  // namespace perfbench
