// Infrastructure benchmark (google-benchmark): cost of the verification
// primitives — DBM algebra, symbolic successor generation, reachability,
// and the end-to-end delay queries on the case-study models.
#include <benchmark/benchmark.h>

#include "core/analysis.h"
#include "core/transform.h"
#include "dbm/dbm.h"
#include "gpca/pump_model.h"
#include "mc/query.h"
#include "mc/reach.h"
#include "mc/succ.h"

using namespace psv;

namespace {

void BM_DbmCanonicalize(benchmark::State& state) {
  const int clocks = static_cast<int>(state.range(0));
  dbm::Dbm d = dbm::Dbm::universal(clocks);
  for (int i = 1; i <= clocks; ++i) d.constrain(i, 0, dbm::bound_le(100 + i));
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    dbm::Dbm copy = d;
    copy.up();
    copy.constrain(1, 0, dbm::bound_le(50));
    copy.canonicalize();
    benchmark::DoNotOptimize(copy.empty());
  }
}
BENCHMARK(BM_DbmCanonicalize)->Arg(4)->Arg(8)->Arg(16);

/// The pump Table-I PSM with the REQ1 and REQ2 end-to-end probes, 13 clocks
/// (dimension 14), and the first `count` states its exploration stores.
struct PumpStates {
  ta::Network net;
  std::vector<mc::SymState> states;
};

PumpStates pump_states(std::size_t count) {
  gpca::PumpModelOptions opt;
  opt.include_empty_syringe = false;
  const ta::Network pim = gpca::build_pump_pim(opt);
  const core::PsmArtifacts psm =
      core::transform(pim, gpca::pump_pim_info(pim), gpca::board_scheme(opt));
  PumpStates out{core::instrument_psm_for_requirements(
                     psm, {gpca::req1(opt), {"REQ2", "BolusReq", "StopInfusion", 2500}})
                     .net,
                 {}};
  mc::ExploreOptions opts;
  opts.jobs = 1;
  mc::Reachability engine(out.net, mc::when(ta::BoolExpr::truth()), opts);
  engine.explore_all_ids(
      [&](const mc::SymState& s, std::uint64_t) {
        if (out.states.size() < count) out.states.push_back(s);
      },
      [&] { return out.states.size() >= count; });
  return out;
}

/// The zones of pump_states(count).
std::vector<dbm::Dbm> pump_zones(std::size_t count) {
  std::vector<dbm::Dbm> zones;
  for (const mc::SymState& s : pump_states(count).states) zones.push_back(s.zone);
  return zones;
}

// Closure of real pump zones after an extrapolation-style loosening (one
// upper bound dropped), the input shape canonicalize sees per successor.
void BM_DbmCanonicalizePump(benchmark::State& state) {
  std::vector<dbm::Dbm> inputs = pump_zones(1024);
  for (dbm::Dbm& d : inputs) {
    int clock = 1;
    for (int c = 2; c <= d.num_clocks(); ++c)
      if (!dbm::is_inf(d.upper(c)) && (dbm::is_inf(d.upper(clock)) || d.upper(c) > d.upper(clock)))
        clock = c;
    d.set(clock, 0, dbm::kInf);
  }
  state.counters["dim"] = inputs.front().dim();
  std::size_t next = 0;
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    dbm::Dbm copy = inputs[next];
    next = (next + 1) % inputs.size();
    copy.canonicalize();
    benchmark::DoNotOptimize(copy.empty());
  }
}
BENCHMARK(BM_DbmCanonicalizePump);

void BM_DbmInclusion(benchmark::State& state) {
  const int clocks = static_cast<int>(state.range(0));
  dbm::Dbm a = dbm::Dbm::zero(clocks);
  a.up();
  dbm::Dbm b = a;
  b.constrain(1, 0, dbm::bound_le(10));
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    benchmark::DoNotOptimize(a.includes(b));
    benchmark::DoNotOptimize(b.includes(a));
  }
}
BENCHMARK(BM_DbmInclusion)->Arg(4)->Arg(16);

// Both inclusion directions of BM_DbmInclusion in one relation pass.
void BM_DbmRelation(benchmark::State& state) {
  const int clocks = static_cast<int>(state.range(0));
  dbm::Dbm a = dbm::Dbm::zero(clocks);
  a.up();
  dbm::Dbm b = a;
  b.constrain(1, 0, dbm::bound_le(10));
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    benchmark::DoNotOptimize(a.relation(b));
  }
}
BENCHMARK(BM_DbmRelation)->Arg(4)->Arg(16);

// Subsumption-scan shape on real pump zones: every zone against its
// successor in exploration order, via relation vs the two includes calls.
void BM_DbmRelationPump(benchmark::State& state) {
  const std::vector<dbm::Dbm> zones = pump_zones(1024);
  const bool one_pass = state.range(0) == 1;
  std::size_t next = 0;
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    const dbm::Dbm& a = zones[next];
    next = (next + 1) % zones.size();
    const dbm::Dbm& b = zones[next];
    if (one_pass) {
      benchmark::DoNotOptimize(a.relation(b));
    } else {
      benchmark::DoNotOptimize(a.includes(b));
      benchmark::DoNotOptimize(b.includes(a));
    }
  }
}
BENCHMARK(BM_DbmRelationPump)->Arg(0)->Arg(1)->ArgNames({"relation"});

// Successor generation on real pump states, finalize (invariants, delay,
// freeing inactive clocks, extrapolation against the target's clock
// bounds) included: the per-frontier-state work of a wave before routing
// and insert. `time_per_succ` is the cost of one generated successor.
void BM_SuccessorsPump(benchmark::State& state) {
  const PumpStates pump = pump_states(1024);
  const mc::SuccGen gen(pump.net, {});
  std::size_t next = 0;
  std::size_t successors = 0;
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    const std::vector<mc::SymSuccessor> out = gen.successors(pump.states[next]);
    next = (next + 1) % pump.states.size();
    successors += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["time_per_succ"] = benchmark::Counter(
      static_cast<double>(successors), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SuccessorsPump);

void BM_PimReachability(benchmark::State& state) {
  gpca::PumpModelOptions opt;
  opt.include_empty_syringe = state.range(0) == 1;
  ta::Network pim = gpca::build_pump_pim(opt);
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    mc::Reachability engine(pim, mc::at(pim, "M", "Infusing"));
    benchmark::DoNotOptimize(engine.run().reachable);
  }
}
BENCHMARK(BM_PimReachability)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PimMaxDelay(benchmark::State& state) {
  gpca::PumpModelOptions opt;
  opt.include_empty_syringe = false;
  ta::Network pim = gpca::build_pump_pim(opt);
  core::PimInfo info = gpca::pump_pim_info(pim);
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    core::PimVerification v =
        core::verify_pim_requirement(pim, info, gpca::req1(opt), 100000);
    benchmark::DoNotOptimize(v.max_delay);
  }
}
BENCHMARK(BM_PimMaxDelay)->Unit(benchmark::kMillisecond);

void BM_PsmTransform(benchmark::State& state) {
  gpca::PumpModelOptions opt;
  ta::Network pim = gpca::build_pump_pim(opt);
  core::PimInfo info = gpca::pump_pim_info(pim);
  core::ImplementationScheme scheme = gpca::board_scheme(opt);
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    core::PsmArtifacts psm = core::transform(pim, info, scheme);
    benchmark::DoNotOptimize(psm.psm.num_automata());
  }
}
BENCHMARK(BM_PsmTransform)->Unit(benchmark::kMicrosecond);

// Arg(0) = jobs knob: 0 -> auto (all hardware threads), 1 -> sequential.
void BM_PsmFullExploration(benchmark::State& state) {
  gpca::PumpModelOptions opt;
  opt.include_empty_syringe = false;
  ta::Network pim = gpca::build_pump_pim(opt);
  core::PimInfo info = gpca::pump_pim_info(pim);
  core::PsmArtifacts psm = core::transform(pim, info, gpca::board_scheme(opt));
  mc::ExploreOptions opts;
  opts.jobs = static_cast<unsigned>(state.range(0));
  for (benchmark::State::StateIterator::value_type _ : state) {
    (void)_;
    mc::Reachability engine(psm.psm, mc::when(ta::var_eq(psm.input("BolusReq").missed, 1)), opts);
    benchmark::DoNotOptimize(engine.run().reachable);
  }
}
BENCHMARK(BM_PsmFullExploration)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"jobs"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
