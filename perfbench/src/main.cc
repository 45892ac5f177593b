// pipeline_bench: runs one benchmark workload in its own process and
// prints the result as one JSON line (the last line of stdout), which
// perfbench/run.py turns into the benchmark's output.
//
//   pipeline_bench --workload social_serve --seed 7 --seconds 10
//                  [--trace 1 --trace-out FILE] [--tiny]
//                  [--corrupt served|state]
#include <cstdio>
#include <string>
#include <thread>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Context ctx;
  if (!perfbench::ParseArgs(argc, argv, &ctx.args)) return 2;
  ctx.corruption_pending = !ctx.args.corrupt.empty();

  perfbench::Report& r = ctx.report;
  r.Info("workload", ctx.args.workload);
  r.Info("seed", static_cast<double>(ctx.args.seed));
  r.Info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  r.Info("lanes", static_cast<double>(ctx.lanes));
  r.Info("build_type", PERFBENCH_BUILD_TYPE);
  r.Info("scale", ctx.args.tiny ? "tiny" : "full");
  r.Info("seconds", ctx.args.seconds);

  if (ctx.args.workload == "social_serve") {
    perfbench::RunSocialServe(&ctx);
  } else if (ctx.args.workload == "set_forall") {
    perfbench::RunSetForall(&ctx);
  } else if (ctx.args.workload == "churn_serve") {
    perfbench::RunChurnServe(&ctx);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 ctx.args.workload.c_str());
    return 2;
  }

  if (ctx.args.trace) {
    r.Counter("trace.spans", static_cast<double>(ctx.tracer.size()));
    if (!ctx.tracer.Write(ctx.args.trace_out, r.OtherDataJson())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   ctx.args.trace_out.c_str());
      return 3;
    }
  }
  std::printf("%s\n", r.ResultJson().c_str());
  return 0;
}
