// perfbench_tool: the in-process half of the benchmark driven by
// perfbench/run.py.
//   prep   build a workload's corpus, queries, index and reference answers
//   load   closed-loop wire client for one traffic phase
//   check  compare wire answers with an engine opened from a snapshot
//   trace  call each layer's entry point in-process and record spans
#include <cstdio>
#include <string>

#include "common/flags.h"

namespace perfbench {
int RunPrep(const gdim::Flags& flags);
int RunLoad(const gdim::Flags& flags);
int RunCheck(const gdim::Flags& flags);
int RunTrace(const gdim::Flags& flags);
}  // namespace perfbench

int main(int argc, char** argv) {
  const gdim::Flags flags(argc, argv);
  const std::string cmd =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (cmd == "prep") return perfbench::RunPrep(flags);
  if (cmd == "load") return perfbench::RunLoad(flags);
  if (cmd == "check") return perfbench::RunCheck(flags);
  if (cmd == "trace") return perfbench::RunTrace(flags);
  std::fprintf(stderr, "usage: perfbench_tool <prep|load|check|trace> "
                       "[--flags]\n");
  return 2;
}
