// E5b / E14, Theorem 5: naive vs semi-naive iteration to the same
// fixpoint. Expected shape: on recursive workloads (transitive closure
// over chains and random graphs) semi-naive does O(paths) work while
// naive re-derives everything every round: the gap grows with the
// chain length.
#include <benchmark/benchmark.h>

#include "workloads.h"

namespace lps::bench {
namespace {

void RunTc(benchmark::State& state, const std::string& facts,
           bool semi_naive, bool reorder = false) {
  std::string source = facts + TransitiveClosureRules();
  size_t tuples = 0, rule_runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLPS);
    state.ResumeTiming();
    Options opts;
    opts.semi_naive = semi_naive;
    // This file benchmarks the iteration machinery itself. The
    // cost-based join order probes the growing recursive relation and
    // collapses chain closures into round 0 (DESIGN.md section 17),
    // which would measure the planner, not the naive/semi-naive gap -
    // bench_planner owns that comparison. The *Default siblings below
    // run the default configuration (cost-based order on) instead.
    opts.reorder = reorder;
    opts.max_tuples = 10000000;
    opts.max_iterations = 1000000;
    EvalStats stats = MustEvaluate(engine.get(), opts);
    tuples = stats.tuples_derived;
    rule_runs = stats.rule_runs;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["rule_runs"] = static_cast<double>(rule_runs);
}

void BM_TcChainNaive(benchmark::State& state) {
  RunTc(state, ChainGraph(static_cast<int>(state.range(0))), false);
}
BENCHMARK(BM_TcChainNaive)->Arg(16)->Arg(64)->Arg(128);

void BM_TcChainSemiNaive(benchmark::State& state) {
  RunTc(state, ChainGraph(static_cast<int>(state.range(0))), true);
}
BENCHMARK(BM_TcChainSemiNaive)->Arg(16)->Arg(64)->Arg(128)->Arg(512);

void BM_TcRandomNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunTc(state, RandomGraph(n, 2 * n, 99), false);
}
BENCHMARK(BM_TcRandomNaive)->Arg(32)->Arg(64);

void BM_TcRandomSemiNaive(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunTc(state, RandomGraph(n, 2 * n, 99), true);
}
BENCHMARK(BM_TcRandomSemiNaive)->Arg(32)->Arg(64)->Arg(128);

// Default-configuration siblings (cost-based join order on): what a
// session evaluates when nothing is pinned.
void BM_TcChainSemiNaiveDefault(benchmark::State& state) {
  RunTc(state, ChainGraph(static_cast<int>(state.range(0))), true,
        /*reorder=*/true);
}
BENCHMARK(BM_TcChainSemiNaiveDefault)->Arg(512);

void BM_TcRandomSemiNaiveDefault(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RunTc(state, RandomGraph(n, 2 * n, 99), true, /*reorder=*/true);
}
BENCHMARK(BM_TcRandomSemiNaiveDefault)->Arg(128);

// Quantified rule with division over a growing set family: measures the
// fixpoint machinery on the paper's native construct rather than plain
// Datalog.
void RunAllq(benchmark::State& state, bool semi_naive) {
  int sets = static_cast<int>(state.range(0));
  int card = static_cast<int>(state.range(1));
  std::string source = SetFamily(sets, card, 2 * card, 5);
  for (int i = 0; i < 2 * card; i += 2) {
    source += "q(" + std::to_string(i) + ").\n";
  }
  source += "allq(X) :- s(X), forall E in X : q(E).\n";
  size_t combos = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLPS);
    state.ResumeTiming();
    Options opts;
    opts.semi_naive = semi_naive;
    opts.reorder = false;  // see RunTc
    EvalStats stats = MustEvaluate(engine.get(), opts);
    combos = stats.combos_checked;
  }
  state.counters["combos"] = static_cast<double>(combos);
}

void BM_QuantifiedNaive(benchmark::State& state) {
  RunAllq(state, false);
}
BENCHMARK(BM_QuantifiedNaive)->Args({64, 8})->Args({256, 8});

void BM_QuantifiedSemiNaive(benchmark::State& state) {
  RunAllq(state, true);
}
BENCHMARK(BM_QuantifiedSemiNaive)
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({1024, 8})
    ->Args({256, 32});

// Thread scaling: the same semi-naive fixpoint with the delta joins
// sharded across N worker lanes (eval/bottomup.cc, DESIGN.md sec. 11).
// Expected shape: wall clock drops roughly linearly with lanes until
// the per-iteration merge barrier dominates; the acceptance target is
// >= 2x at 4 lanes on these workloads.
void RunScaling(benchmark::State& state, const std::string& source) {
  size_t tuples = 0, tasks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto engine = MustLoad(source, LanguageMode::kLPS);
    state.ResumeTiming();
    Options opts;
    opts.threads = static_cast<size_t>(state.range(0));
    // The lane-scaling gate measures the sharded delta phase; the
    // cost order's round-0 cascade would leave the lanes nothing to
    // shard (see RunTc).
    opts.reorder = false;
    opts.max_tuples = 10000000;
    opts.max_iterations = 1000000;
    EvalStats stats = MustEvaluate(engine.get(), opts);
    tuples = stats.tuples_derived;
    tasks = stats.parallel_tasks;
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["parallel_tasks"] = static_cast<double>(tasks);
}

// Dense random graph: large per-iteration deltas, the best case for
// sharding.
void BM_TcRandomThreads(benchmark::State& state) {
  RunScaling(state,
             RandomGraph(192, 3 * 192, 99) + TransitiveClosureRules());
}
BENCHMARK(BM_TcRandomThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Long chain: many iterations with medium deltas, stressing the
// per-iteration fork/join barrier.
void BM_TcChainThreads(benchmark::State& state) {
  RunScaling(state, ChainGraph(384) + TransitiveClosureRules());
}
BENCHMARK(BM_TcChainThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// BOM-flavored sharding: part/descendant reachability over a forest of
// component links (flat Horn recursion like the bill-of-materials
// rollup's part graph, without the set-arithmetic builtins that pin
// rules to the coordinator).
void BM_BomReachThreads(benchmark::State& state) {
  Rng rng(1234);
  std::string src;
  constexpr int kParts = 2500;
  for (int i = 1; i < kParts; ++i) {
    src += "component(p" + std::to_string(rng.Below(i)) + ", p" +
           std::to_string(i) + ").\n";
  }
  src += "uses(X, Y) :- component(X, Y).\n";
  src += "uses(X, Z) :- uses(X, Y), component(Y, Z).\n";
  RunScaling(state, src);
}
BENCHMARK(BM_BomReachThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lps::bench

BENCHMARK_MAIN();
