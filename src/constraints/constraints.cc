#include "src/constraints/constraints.h"

#include <sstream>

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace seqhide {

ConstraintSpec ConstraintSpec::UniformGap(size_t min_gap, size_t max_gap) {
  ConstraintSpec spec;
  spec.uniform_gap_ = GapBound{min_gap, max_gap};
  return spec;
}

ConstraintSpec ConstraintSpec::Window(size_t max_window) {
  ConstraintSpec spec;
  spec.max_window_ = max_window;
  return spec;
}

ConstraintSpec ConstraintSpec::PerArrow(std::vector<GapBound> gaps) {
  ConstraintSpec spec;
  spec.per_arrow_gaps_ = std::move(gaps);
  return spec;
}

ConstraintSpec& ConstraintSpec::SetMaxWindow(size_t ws) {
  max_window_ = ws;
  return *this;
}

ConstraintSpec& ConstraintSpec::SetUniformGap(size_t min_gap,
                                              size_t max_gap) {
  SEQHIDE_CHECK(per_arrow_gaps_.empty())
      << "cannot mix uniform and per-arrow gap bounds";
  uniform_gap_ = GapBound{min_gap, max_gap};
  return *this;
}

bool ConstraintSpec::IsUnconstrained() const {
  return !HasGaps() && !max_window_.has_value();
}

bool ConstraintSpec::HasGaps() const {
  if (uniform_gap_.has_value() && !uniform_gap_->IsUnconstrained()) {
    return true;
  }
  for (const auto& g : per_arrow_gaps_) {
    if (!g.IsUnconstrained()) return true;
  }
  return false;
}

GapBound ConstraintSpec::gap(size_t arrow_index) const {
  if (!per_arrow_gaps_.empty()) {
    SEQHIDE_CHECK_LT(arrow_index, per_arrow_gaps_.size());
    return per_arrow_gaps_[arrow_index];
  }
  if (uniform_gap_.has_value()) return *uniform_gap_;
  return GapBound{};
}

Status ConstraintSpec::Validate(size_t pattern_length) const {
  if (pattern_length == 0) {
    return Status::InvalidArgument("pattern must be non-empty");
  }
  if (!per_arrow_gaps_.empty() &&
      per_arrow_gaps_.size() != pattern_length - 1) {
    return Status::InvalidArgument(
        "per-arrow gap list has " + std::to_string(per_arrow_gaps_.size()) +
        " entries; pattern of length " + std::to_string(pattern_length) +
        " needs " + std::to_string(pattern_length - 1));
  }
  auto check_bound = [](const GapBound& g) -> Status {
    if (g.min_gap > g.max_gap) {
      return Status::InvalidArgument("gap bound has min_gap > max_gap");
    }
    return Status::OK();
  };
  if (uniform_gap_.has_value()) SEQHIDE_RETURN_IF_ERROR(check_bound(*uniform_gap_));
  for (const auto& g : per_arrow_gaps_) SEQHIDE_RETURN_IF_ERROR(check_bound(g));
  if (max_window_.has_value() && *max_window_ < pattern_length) {
    return Status::InvalidArgument(
        "max window " + std::to_string(*max_window_) +
        " cannot fit a pattern of length " + std::to_string(pattern_length));
  }
  return Status::OK();
}

bool ConstraintSpec::SatisfiedBy(const std::vector<size_t>& indices) const {
  if (indices.empty()) return true;
  for (size_t k = 0; k + 1 < indices.size(); ++k) {
    SEQHIDE_DCHECK(indices[k] < indices[k + 1]);
    size_t between = indices[k + 1] - indices[k] - 1;
    if (!gap(k).Allows(between)) return false;
  }
  if (max_window_.has_value()) {
    size_t span = indices.back() - indices.front() + 1;
    if (span > *max_window_) return false;
  }
  return true;
}

std::string ConstraintSpec::ToString() const {
  std::ostringstream out;
  if (IsUnconstrained()) return "unconstrained";
  auto gap_str = [](const GapBound& g) {
    std::string s = StrCat({"[", std::to_string(g.min_gap), ".."});
    if (g.max_gap == GapBound::kNoMax) {
      s += "]";
    } else {
      s += std::to_string(g.max_gap) + "]";
    }
    return s;
  };
  if (uniform_gap_.has_value() && !uniform_gap_->IsUnconstrained()) {
    out << "gap" << gap_str(*uniform_gap_);
  }
  if (!per_arrow_gaps_.empty()) {
    out << "gaps(";
    for (size_t i = 0; i < per_arrow_gaps_.size(); ++i) {
      if (i > 0) out << ",";
      out << gap_str(per_arrow_gaps_[i]);
    }
    out << ")";
  }
  if (max_window_.has_value()) {
    if (out.tellp() > 0) out << " ";
    out << "window<=" << *max_window_;
  }
  return out.str();
}

namespace {

// Parses the "[..]" body of an arrow annotation into a GapBound.
// Accepted forms: "g" (exact), "a..b", "a..", "..b", "..".
Result<GapBound> ParseGapBody(std::string_view body) {
  GapBound bound;
  size_t dots = body.find("..");
  if (dots == std::string_view::npos) {
    auto exact = ParseInt64(body);
    if (!exact.has_value() || *exact < 0) {
      return Status::InvalidArgument("bad gap annotation: [" +
                                     std::string(body) + "]");
    }
    bound.min_gap = static_cast<size_t>(*exact);
    bound.max_gap = static_cast<size_t>(*exact);
    return bound;
  }
  std::string_view lo = body.substr(0, dots);
  std::string_view hi = body.substr(dots + 2);
  if (!lo.empty()) {
    auto v = ParseInt64(lo);
    if (!v.has_value() || *v < 0) {
      return Status::InvalidArgument("bad min gap: [" + std::string(body) +
                                     "]");
    }
    bound.min_gap = static_cast<size_t>(*v);
  }
  if (!hi.empty()) {
    auto v = ParseInt64(hi);
    if (!v.has_value() || *v < 0) {
      return Status::InvalidArgument("bad max gap: [" + std::string(body) +
                                     "]");
    }
    bound.max_gap = static_cast<size_t>(*v);
  }
  if (bound.min_gap > bound.max_gap) {
    return Status::InvalidArgument("min gap exceeds max gap: [" +
                                   std::string(body) + "]");
  }
  return bound;
}

}  // namespace

Result<ConstrainedPattern> ParseConstrainedPattern(Alphabet* alphabet,
                                                   const std::string& text) {
  // Split off an optional "; window<=W" suffix first.
  std::string_view main_part = text;
  std::optional<size_t> window;
  size_t semi = text.find(';');
  if (semi != std::string::npos) {
    std::string_view suffix = Trim(std::string_view(text).substr(semi + 1));
    main_part = std::string_view(text).substr(0, semi);
    constexpr std::string_view kWindowPrefix = "window<=";
    if (!StartsWith(suffix, kWindowPrefix)) {
      return Status::InvalidArgument("expected 'window<=W' after ';' in: " +
                                     text);
    }
    auto w = ParseInt64(suffix.substr(kWindowPrefix.size()));
    if (!w.has_value() || *w < 1) {
      return Status::InvalidArgument("bad window bound in: " + text);
    }
    window = static_cast<size_t>(*w);
  }

  std::vector<std::string> tokens = SplitWhitespace(main_part);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty pattern: " + text);
  }

  Sequence pattern;
  std::vector<GapBound> gaps;
  bool expect_symbol = true;
  for (const std::string& tok : tokens) {
    if (expect_symbol) {
      if (StartsWith(tok, "->")) {
        return Status::InvalidArgument("expected symbol, got arrow in: " +
                                       text);
      }
      if (tok == Alphabet::DeltaToken()) {
        return Status::InvalidArgument(
            "the marking token '" + Alphabet::DeltaToken() +
            "' cannot appear in a pattern: " + text);
      }
      pattern.Append(alphabet->Intern(tok));
      expect_symbol = false;
    } else {
      if (!StartsWith(tok, "->")) {
        return Status::InvalidArgument("expected '->' between symbols in: " +
                                       text);
      }
      std::string_view rest = std::string_view(tok).substr(2);
      if (rest.empty()) {
        gaps.push_back(GapBound{});
      } else {
        if (rest.front() != '[' || rest.back() != ']') {
          return Status::InvalidArgument("bad arrow annotation: " + tok);
        }
        SEQHIDE_ASSIGN_OR_RETURN(
            GapBound bound, ParseGapBody(rest.substr(1, rest.size() - 2)));
        gaps.push_back(bound);
      }
      expect_symbol = true;
    }
  }
  if (expect_symbol) {
    return Status::InvalidArgument("pattern ends with an arrow: " + text);
  }

  ConstrainedPattern result;
  result.pattern = std::move(pattern);
  bool any_gap_constrained = false;
  for (const auto& g : gaps) {
    if (!g.IsUnconstrained()) any_gap_constrained = true;
  }
  if (any_gap_constrained) {
    result.constraints = ConstraintSpec::PerArrow(std::move(gaps));
  }
  if (window.has_value()) result.constraints.SetMaxWindow(*window);
  SEQHIDE_RETURN_IF_ERROR(
      result.constraints.Validate(result.pattern.size()));
  return result;
}

}  // namespace seqhide
