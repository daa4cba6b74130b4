#include "workloads.h"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "baseline/lower_bound.h"
#include "core/compiled_problem.h"
#include "soc/generator.h"
#include "soc/soc_parser.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kWidths[] = {16, 24, 32, 48};

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Generated SOCs have a fixed shape, so a seed changes the details of the
// inputs but not how much work they are: the serialized text (what parsing
// and keying cost) stays within 1.5% of a typical SOC of that many cores,
// and pattern counts are scaled so the lower bound at W=32 is fixed per core
// (what scheduling produces). Unshaped, the bound alone spreads by a
// quarter between seeds.
constexpr double kBytesPerCore = 119;
constexpr double kBoundPerCore = 12500;  // cycles at W=32

soctest::Soc Generate(const std::string& name, int cores, soctest::Rng& rng) {
  const double size = kBytesPerCore * cores;
  for (;;) {
    soctest::GeneratorParams gen;
    gen.name = name;
    gen.seed = rng.Next();
    gen.num_cores = cores;
    soctest::Soc soc = soctest::GenerateSoc(gen);
    const auto text = static_cast<double>(soctest::SerializeSoc(soc).size());
    if (std::abs(text - size) > 0.015 * size) continue;
    const auto bound = static_cast<double>(
        soctest::ComputeLowerBound(soc, 32, soctest::kDefaultWMax).value());
    soctest::ScalePatterns(soc, kBoundPerCore * cores / bound);
    return soc;
  }
}

// One generated SOC, written as a .soc file; returns the request-line spec.
std::string WriteGenerated(const std::string& dir, const std::string& name,
                           int cores, soctest::Rng& rng) {
  const std::string path = dir + "/" + name + ".soc";
  WriteFile(path, soctest::SerializeSoc(Generate(name, cores, rng)));
  return "file:" + path;
}

// Each workload draws from its own stream of the seed.
soctest::Rng WorkloadRng(std::uint64_t seed, std::uint64_t workload) {
  return soctest::Rng(soctest::SplitMix64(seed * 0x100 + workload).Next());
}

}  // namespace

WorkloadInputs WorkloadInputs::ServeRepeat(std::uint64_t seed,
                                           const std::string& dir) {
  soctest::Rng rng = WorkloadRng(seed, 1);
  WorkloadInputs in;
  for (int s = 0; s < 4; ++s) {
    const std::string spec =
        WriteGenerated(dir, "repeat" + std::to_string(s), 64, rng);
    for (int w : kWidths) {
      in.lines_.push_back(spec + " " + std::to_string(w) + " schedule");
    }
  }
  in.warm_ = in.lines_;
  in.order_.resize(1 << 16);
  for (int& id : in.order_) {
    id = static_cast<int>(
        rng.UniformInt(0, static_cast<int>(in.lines_.size()) - 1));
  }
  return in;
}

WorkloadInputs WorkloadInputs::ServeVariants(std::uint64_t seed,
                                             const std::string& dir) {
  soctest::Rng rng = WorkloadRng(seed, 2);
  const soctest::Soc base = Generate("variant", 64, rng);
  WorkloadInputs in;
  in.dir_ = dir;
  in.variant_seed_ = rng.Next();
  in.base_text_ = soctest::SerializeSoc(base);
  // SerializeSoc writes exactly one "  patterns <n>" line per core, in core
  // order, so a variant is a one-line splice of the base text.
  const std::string& text = in.base_text_;
  for (std::size_t at = text.find("\n  patterns "); at != std::string::npos;
       at = text.find("\n  patterns ", at + 1)) {
    in.pattern_lines_.emplace_back(at + 1, text.find('\n', at + 1));
  }
  for (const soctest::CoreSpec& core : base.cores()) {
    in.base_patterns_.push_back(static_cast<long long>(core.num_patterns));
  }
  if (in.pattern_lines_.size() != in.base_patterns_.size()) {
    throw std::runtime_error("unexpected serialized SOC layout");
  }
  WriteFile(dir + "/base.soc", text);
  in.warm_.push_back("file:" + dir + "/base.soc 32 schedule");
  return in;
}

WorkloadInputs WorkloadInputs::BatchSearch(std::uint64_t seed,
                                           const std::string& dir) {
  soctest::Rng rng = WorkloadRng(seed, 3);
  const std::vector<std::string> socs = {
      "bench:d695",
      "bench:p22810s",
      "bench:p34392s",
      "bench:p93791s",
      WriteGenerated(dir, "gen24", 24, rng),
      WriteGenerated(dir, "gen64", 64, rng),
  };
  // The request mix is fixed; the seed draws the generated SOCs and the
  // improver seeds, so every seed asks for the same amount of work.
  WorkloadInputs in;
  for (const std::string& soc : socs) {
    in.lines_.push_back(soc + " 32 schedule search=1");
    in.lines_.push_back(soc + " 24 improve iters=32 batch=8 seed=" +
                        std::to_string(rng.UniformInt(1, 1000)));
    in.lines_.push_back(soc + " 48 sweep min=41 max=48");
  }
  in.warm_ = in.lines_;
  return in;
}

int WorkloadInputs::Id(std::int64_t k) const {
  return order_.empty() ? static_cast<int>(k)
                        : order_[static_cast<std::size_t>(k) % order_.size()];
}

std::string WorkloadInputs::Line(std::int64_t k) const {
  if (base_text_.empty()) return lines_[static_cast<std::size_t>(Id(k))];
  const auto cores = static_cast<std::uint64_t>(pattern_lines_.size());
  const auto core = static_cast<std::size_t>(
      soctest::SplitMix64(variant_seed_ + static_cast<std::uint64_t>(k)).Next() %
      cores);
  const auto [begin, end] = pattern_lines_[core];
  std::string text(base_text_, 0, begin);
  text += "  patterns " + std::to_string(base_patterns_[core] + 1 + k);
  text.append(base_text_, end, std::string::npos);
  const std::string path =
      dir_ + "/v" + std::to_string(k % kVariantFiles) + ".soc";
  WriteFile(path, text);
  return "file:" + path + " 32 schedule";
}

std::vector<std::string> WorkloadInputs::Stream(std::int64_t n) const {
  if (!base_text_.empty() && n > kVariantFiles) {
    throw std::runtime_error("variant stream longer than the file ring");
  }
  std::vector<std::string> out;
  for (std::int64_t k = 0; k < n; ++k) out.push_back(Line(k));
  return out;
}

}  // namespace perfbench
