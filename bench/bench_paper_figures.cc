// The paper's experiments from one binary. Runs every entry of the
// experiment table in pbs/sim/figures.h, or only the ids named on the
// command line, and prints per figure its result tables (aligned text and a
// `# csv:` block; PBS_BENCH_JSON records under each table's bench name)
// followed by the verdict of each shape claim against the paper:
//
//   bench_paper_figures                          # every figure, quick scale
//   bench_paper_figures sec52_round_tradeoff fig3_pinsketch_wp
//   PBS_BENCH_FULL=1 bench_paper_figures fig4_delta_sweep   # paper scale
//
// Exit status: 1 if a claim fails that is neither a wall-clock claim nor a
// recorded finding (docs/BENCHMARKS.md lists both), 2 on an unknown id,
// else 0.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "pbs/sim/figures.h"

using namespace pbs;

int main(int argc, char** argv) {
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    const Figure* figure = FindFigure(argv[i]);
    if (figure == nullptr) {
      std::fprintf(stderr, "unknown figure '%s'; known:", argv[i]);
      for (const Figure& f : PaperFigures()) {
        std::fprintf(stderr, " %s", f.id.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(figure);
  }
  if (selected.empty()) {
    for (const Figure& figure : PaperFigures()) selected.push_back(&figure);
  }

  const Scale scale = DefaultScale();
  int failed = 0;
  for (const Figure* figure : selected) {
    PrintHeader(figure->title.c_str(), scale);
    const std::vector<Table> tables = figure->run(scale);
    for (const Table& table : tables) {
      bench::JsonEmitter::Instance().Emit(table);
      table.Print();
    }
    std::printf("\n");
    for (const Claim& claim : figure->claims) {
      const bool holds = claim.holds(tables, scale);
      const bool finding = !holds && !claim.finding.empty();
      std::printf("claim %s ... %s%s\n  paper: %s\n", claim.check.c_str(),
                  holds ? "ok" : "FAILED",
                  claim.wall_clock ? " (wall-clock, not asserted)"
                  : finding        ? " (recorded finding)"
                                   : "",
                  claim.paper.c_str());
      if (finding) std::printf("  finding: %s\n", claim.finding.c_str());
      if (!holds && !claim.wall_clock && !finding) ++failed;
    }
    std::printf("\n");
  }
  if (failed > 0) std::fprintf(stderr, "%d claim(s) FAILED\n", failed);
  return failed > 0 ? 1 : 0;
}
