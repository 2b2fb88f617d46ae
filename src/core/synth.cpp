#include "core/synth.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/analysis.h"
#include "util/error.h"

namespace psv::core {

namespace {

// NN-chain ordering is O(N^2 * axes); beyond this many candidates fall back
// to lattice order, whose row-major adjacency is already neighbour-first.
constexpr std::size_t kNnOrderCap = 4096;

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Per-axis lattice coordinates of a row-major candidate index.
std::vector<std::size_t> axis_coords(const std::vector<SweepAxis>& axes, std::size_t index) {
  std::vector<std::size_t> coords(axes.size(), 0);
  for (std::size_t k = axes.size(); k-- > 0;) {
    const std::size_t n = axes[k].count();
    coords[k] = index % n;
    index /= n;
  }
  return coords;
}

/// Greedy nearest-neighbour chain from the all-LO corner: at every step the
/// unvisited candidate closest (L1 in step units, ties to the smaller
/// index) to the current one comes next, so a bound-missing candidate's
/// dominance fence reaches its neighbours before they are explored.
std::vector<std::size_t> nn_chain_order(const std::vector<SweepAxis>& axes, std::size_t n) {
  std::vector<std::vector<std::size_t>> coords(n);
  for (std::size_t i = 0; i < n; ++i) coords[i] = axis_coords(axes, i);

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<char> used(n, 0);
  std::size_t current = 0;
  used[0] = 1;
  order.push_back(0);
  while (order.size() < n) {
    std::size_t best = n;
    std::size_t best_dist = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      std::size_t dist = 0;
      for (std::size_t k = 0; k < axes.size(); ++k) {
        const std::size_t a = coords[current][k], b = coords[i][k];
        dist += a > b ? a - b : b - a;
      }
      if (best == n || dist < best_dist) {
        best = i;
        best_dist = dist;
      }
    }
    used[best] = 1;
    order.push_back(best);
    current = best;
  }
  return order;
}

std::vector<std::size_t> visit_order(const SchemeTemplate& tmpl, std::size_t n,
                                     std::uint64_t visit_seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (visit_seed != 0) {
    // Deterministic Fisher-Yates; splitmix64 keeps the permutation
    // identical across standard libraries.
    std::uint64_t state = visit_seed;
    for (std::size_t i = n; i-- > 1;) {
      const std::size_t j = static_cast<std::size_t>(splitmix64(state) % (i + 1));
      std::swap(order[i], order[j]);
    }
    return order;
  }
  if (n > 1 && n <= kNnOrderCap && !tmpl.axes.empty()) return nn_chain_order(tmpl.axes, n);
  return order;
}

/// `a` (a bound-missing explored candidate) proves `b` fails: `b` is
/// pointwise >= `a` on every monotone-worse-up axis, equal on every other
/// axis, and strictly worse somewhere.
bool dominates(const std::vector<SweepAxis>& axes, const std::vector<std::int32_t>& a,
               const std::vector<std::int32_t>& b) {
  bool strict = false;
  for (std::size_t k = 0; k < axes.size(); ++k) {
    if (axes[k].monotone_worse_up()) {
      if (b[k] < a[k]) return false;
      if (b[k] > a[k]) strict = true;
    } else if (b[k] != a[k]) {
      return false;
    }
  }
  return strict;
}

bool explored(const CandidateOutcome& c) {
  return c.status == CandidateOutcome::Status::kExploredCold;
}

/// Shared mutable search state of one run.
struct SearchState {
  std::mutex mu;
  /// Parameter vectors of explored, constraint-respecting candidates that
  /// missed at least one requirement bound.
  std::vector<std::vector<std::int32_t>> dominators;
  /// Candidates currently inside Verifier::verify, by lattice index; a
  /// completing dominator fires the tokens of the in-flight candidates it
  /// dominates.
  struct Inflight {
    std::vector<std::int32_t> values;
    std::shared_ptr<std::atomic<bool>> token;
  };
  std::unordered_map<std::size_t, Inflight> inflight;
  /// Per-requirement PIM-internal bounds, captured from the first explored
  /// candidate (the PIM stage is scheme-independent); empty until then.
  std::vector<std::int64_t> internals;
  std::atomic<std::size_t> next{0};
};

}  // namespace

const char* to_string(CandidateOutcome::Status status) {
  switch (status) {
    case CandidateOutcome::Status::kExploredCold: return "explored-cold";
    case CandidateOutcome::Status::kPrunedAnalytic: return "pruned-analytic";
    case CandidateOutcome::Status::kPrunedDominated: return "pruned-dominated";
  }
  return "?";
}

SynthReport SchemeSynthesizer::run(const SynthRequest& request) {
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, !request.requirements.empty(),
                 "synthesis request declares no timing requirements");
  PSV_REQUIRE_AS(::psv::ErrorCode::kModel, !request.tmpl.base.name.empty(),
                 "synthesis request carries no scheme template");
  const std::size_t n = request.tmpl.candidate_count();
  const PimInfo info = request.info ? *request.info : analyze_pim(request.pim);
  for (const TimingRequirement& req : request.requirements) {
    PSV_REQUIRE_AS(::psv::ErrorCode::kModel,
                   std::find(info.inputs.begin(), info.inputs.end(), req.input) !=
                       info.inputs.end(),
                   "requirement '" + req.name + "': unknown monitored variable '" + req.input +
                       "'");
    PSV_REQUIRE_AS(::psv::ErrorCode::kModel,
                   std::find(info.outputs.begin(), info.outputs.end(), req.output) !=
                       info.outputs.end(),
                   "requirement '" + req.name + "': unknown controlled variable '" + req.output +
                       "'");
  }

  SynthReport report;
  report.requirements = request.requirements;
  report.axes = request.tmpl.axes;
  report.candidates.resize(n);
  report.stats.candidates_total = n;

  const std::vector<std::size_t> order = visit_order(request.tmpl, n, request.synth.visit_seed);
  SearchState state;
  const std::size_t req_count = request.requirements.size();

  // Evaluate one lattice point end to end; thread-safe for distinct indices.
  auto evaluate = [&](std::size_t index) {
    CandidateOutcome out;
    out.index = index;
    out.values = request.tmpl.values_at(index);
    out.name = request.tmpl.candidate_name(out.values);

    ImplementationScheme scheme;
    try {
      scheme = request.tmpl.instantiate(out.values);
    } catch (const Error& e) {
      if (e.code() != ErrorCode::kModel) throw;
      out.status = CandidateOutcome::Status::kPrunedAnalytic;
      report.candidates[index] = std::move(out);
      return;
    }
    if (request.synth.prune && !check_schedulability(request.pim, info, scheme).ok()) {
      out.status = CandidateOutcome::Status::kPrunedAnalytic;
      report.candidates[index] = std::move(out);
      return;
    }

    auto token = std::make_shared<std::atomic<bool>>(false);
    {
      // Register in-flight BEFORE the dominance check: a dominator that
      // completes between the check and the verify call still finds this
      // candidate's token.
      std::lock_guard<std::mutex> lock(state.mu);
      if (request.synth.prune) {
        for (const std::vector<std::int32_t>& d : state.dominators) {
          if (dominates(report.axes, d, out.values)) {
            out.status = CandidateOutcome::Status::kPrunedDominated;
            report.candidates[index] = std::move(out);
            return;
          }
        }
      }
      state.inflight[index] = {out.values, token};
    }

    VerifyRequest vr;
    vr.pim = request.pim;
    vr.info = info;
    vr.schemes = {scheme};
    vr.requirements = request.requirements;
    vr.options = request.options;
    vr.options.explore.cancel = token;
    VerifyReport vrep;
    try {
      vrep = verifier_.verify(vr);
    } catch (const Error& e) {
      {
        std::lock_guard<std::mutex> lock(state.mu);
        state.inflight.erase(index);
      }
      if (e.code() == ErrorCode::kCancelled) {
        out.status = CandidateOutcome::Status::kPrunedDominated;
      } else if (e.code() == ErrorCode::kModel) {
        out.status = CandidateOutcome::Status::kPrunedAnalytic;
      } else {
        throw;
      }
      report.candidates[index] = std::move(out);
      return;
    }

    const SchemeVerification& sv = vrep.schemes.front();
    out.constraints_ok = sv.schedulability.ok() && sv.constraints.all_hold();
    out.satisfies = out.constraints_ok;
    out.delays.resize(req_count);
    out.bounded.resize(req_count);
    out.slack.resize(req_count);
    bool misses_bound = false;
    for (std::size_t r = 0; r < req_count; ++r) {
      const RequirementResult& rr = sv.requirements[r];
      out.delays[r] = rr.bounds.verified_mc_delay;
      out.bounded[r] = rr.bounds.verified_mc_bounded ? 1 : 0;
      out.slack[r] = request.requirements[r].bound_ms - out.delays[r];
      if (!rr.psm_meets_original) out.satisfies = false;
      if (!rr.bounds.verified_mc_bounded ||
          out.delays[r] > request.requirements[r].bound_ms) {
        misses_bound = true;
      }
    }
    for (const VerifyStageStats& stage : sv.stages)
      mc::accumulate_stats(out.explore, stage.explore);
    out.status = CandidateOutcome::Status::kExploredCold;

    {
      std::lock_guard<std::mutex> lock(state.mu);
      state.inflight.erase(index);
      if (state.internals.empty()) {
        state.internals.resize(req_count);
        for (std::size_t r = 0; r < req_count; ++r) {
          const PimVerification& pim = sv.requirements[r].pim;
          state.internals[r] = pim.bounded ? pim.max_delay : request.requirements[r].bound_ms;
        }
      }
      if (request.synth.prune && out.constraints_ok && misses_bound) {
        state.dominators.push_back(out.values);
        for (auto& [idx, fly] : state.inflight) {
          if (dominates(report.axes, out.values, fly.values))
            fly.token->store(true, std::memory_order_relaxed);
        }
      }
    }
    report.candidates[index] = std::move(out);
  };

  // Parallel fan-out over the visit order.
  if (!order.empty()) {
    unsigned workers = request.synth.workers != 0
                           ? request.synth.workers
                           : std::min(std::thread::hardware_concurrency(), 8u);
    if (workers == 0) workers = 1;
    workers = static_cast<unsigned>(std::min<std::size_t>(workers, order.size()));

    std::mutex err_mu;
    std::exception_ptr first_error;
    auto worker = [&]() {
      while (true) {
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (first_error) return;
        }
        const std::size_t pos = state.next.fetch_add(1);
        if (pos >= order.size()) return;
        try {
          evaluate(order[pos]);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker);
    for (std::thread& t : threads) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  // Fill the analytic pre-bounds (cheap closed forms) now that the PIM
  // internals are known from the first explored candidate.
  if (!state.internals.empty()) {
    for (CandidateOutcome& c : report.candidates) {
      ImplementationScheme scheme;
      try {
        scheme = request.tmpl.instantiate(c.values);
      } catch (const Error&) {
        continue;
      }
      c.analytic.resize(req_count);
      for (std::size_t r = 0; r < req_count; ++r) {
        c.analytic[r] =
            analytic_requirement_bound(scheme, request.requirements[r], state.internals[r]);
      }
    }
  }

  // Statistics.
  for (const CandidateOutcome& c : report.candidates) {
    switch (c.status) {
      case CandidateOutcome::Status::kExploredCold: ++report.stats.explored_cold; break;
      case CandidateOutcome::Status::kPrunedAnalytic: ++report.stats.pruned_analytic; break;
      case CandidateOutcome::Status::kPrunedDominated: ++report.stats.pruned_dominated; break;
    }
    if (explored(c)) report.stats.fresh_states += c.explore.states_explored;
  }

  // Pareto frontier over the satisfying candidates: drop anything weakly
  // dominated on the per-requirement delay vector; among candidates with
  // identical delays keep only the lex-smallest parameter vector (= the
  // smallest lattice index, since row-major index order is lex order).
  for (std::size_t i = 0; i < n; ++i) {
    const CandidateOutcome& ci = report.candidates[i];
    if (!ci.satisfies) continue;
    bool dominated_by_delay = false;
    for (std::size_t j = 0; j < n && !dominated_by_delay; ++j) {
      if (j == i) continue;
      const CandidateOutcome& cj = report.candidates[j];
      if (!cj.satisfies) continue;
      bool le_all = true, lt_any = false;
      for (std::size_t r = 0; r < req_count; ++r) {
        if (cj.delays[r] > ci.delays[r]) le_all = false;
        if (cj.delays[r] < ci.delays[r]) lt_any = true;
      }
      dominated_by_delay = le_all && (lt_any || j < i);
    }
    if (!dominated_by_delay) report.pareto.push_back(i);
  }

  // Feasibility frontier: per requirement, the tightest verified delay any
  // explored constraint-respecting candidate attains. Pruned candidates
  // cannot hide the minimum or its lex-smallest witness: every pruned
  // candidate has an explored constraint-respecting dominator with
  // pointwise <= delays and a smaller lattice index.
  std::vector<std::size_t> witness_index(req_count, n);
  for (std::size_t r = 0; r < req_count; ++r) {
    FeasibilityEntry entry;
    entry.requirement = request.requirements[r].name;
    entry.tightest_ms = request.options.search_limit;
    std::size_t witness = n;
    for (std::size_t i = 0; i < n; ++i) {
      const CandidateOutcome& c = report.candidates[i];
      if (!explored(c) || !c.constraints_ok || c.bounded[r] == 0) continue;
      if (!entry.bounded || c.delays[r] < entry.tightest_ms) {
        entry.bounded = true;
        entry.tightest_ms = c.delays[r];
        witness = i;
      }
    }
    if (witness < n) entry.witness = report.candidates[witness].name;
    witness_index[r] = witness;
    report.feasibility.push_back(std::move(entry));
  }

  // Witness provenance: re-answer each distinct witness candidate through
  // the same Verifier — its pooled session memoized the whole sweep, so
  // these are pure cache hits, no exploration — and attach the ranked
  // critical traces of the tightest requirement's M-C probe.
  if (request.options.top_k > 0) {
    std::map<std::size_t, VerifyReport> witness_reports;
    for (std::size_t r = 0; r < req_count; ++r) {
      const std::size_t i = witness_index[r];
      if (i >= n) continue;
      auto it = witness_reports.find(i);
      if (it == witness_reports.end()) {
        VerifyRequest vr;
        vr.pim = request.pim;
        vr.info = info;
        vr.schemes = {request.tmpl.instantiate(report.candidates[i].values)};
        vr.requirements = request.requirements;
        vr.options = request.options;
        it = witness_reports.emplace(i, verifier_.verify(vr)).first;
      }
      const SlackReport& slack = it->second.schemes.front().slack;
      if (r < slack.requirements.size()) {
        report.feasibility[r].critical = slack.requirements[r].critical;
        report.feasibility[r].witness_consts = slack.requirements[r].witness_consts;
      }
    }
  }

  return report;
}

std::string SynthReport::feasibility_detail(std::size_t top_k) const {
  std::ostringstream os;
  for (const FeasibilityEntry& f : feasibility) {
    if (f.bounded) {
      os << "feasibility: " << f.requirement << " tightest=" << f.tightest_ms << "ms via "
         << f.witness << "\n";
    } else {
      os << "feasibility: " << f.requirement << " unbounded\n";
    }
    const std::size_t shown = std::min(top_k, f.critical.size());
    for (std::size_t i = 0; i < shown; ++i) {
      const CriticalTrace& ct = f.critical[i];
      os << "  critical[" << i << "]: delay " << ct.delay_ms << "ms, slack " << ct.slack_ms
         << "ms\n";
      os << ct.trace.to_string();
    }
  }
  return os.str();
}

std::string SynthReport::frontier_text() const {
  std::ostringstream os;
  if (pareto.empty()) {
    os << "frontier: pareto none\n";
  } else {
    for (std::size_t idx : pareto) {
      const CandidateOutcome& c = candidates[idx];
      os << "frontier: pareto " << c.name;
      for (std::size_t r = 0; r < requirements.size(); ++r)
        os << " " << requirements[r].name << "=" << c.delays[r] << "ms";
      os << "\n";
    }
  }
  for (const FeasibilityEntry& f : feasibility) {
    if (f.bounded) {
      os << "frontier: feasibility " << f.requirement << " tightest=" << f.tightest_ms
         << "ms via " << f.witness << "\n";
    } else {
      os << "frontier: feasibility " << f.requirement << " unbounded\n";
    }
  }
  return os.str();
}

std::string SynthReport::summary() const {
  std::ostringstream os;
  os << "=== scheme synthesis: " << stats.candidates_total << " candidate(s) over "
     << axes.size() << " sweep axis(es) ===\n";
  for (const SweepAxis& axis : axes) {
    os << "  axis " << axis.label() << ": " << axis.lo << ".." << axis.hi << " step "
       << axis.step << " (" << axis.count() << " values)\n";
  }
  os << "  explored " << stats.explored_cold << ", pruned "
     << (stats.pruned_analytic + stats.pruned_dominated) << " (" << stats.pruned_analytic
     << " analytic, " << stats.pruned_dominated << " dominated)\n";
  os << "  " << stats.fresh_states << " state(s) explored\n";
  os << frontier_text();
  return os.str();
}

}  // namespace psv::core
