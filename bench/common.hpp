// Shared scaffolding for the figure-driver binaries: every driver prints
// (a) a provenance header, (b) the figure's series as an aligned table,
// (c) an ASCII rendering of the curve shapes, and (d) CSV rows on demand —
// the "same rows/series the paper reports".
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "core/figures.hpp"
#include "core/live_backend.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace linkpad::bench {

/// Standard options shared by all figure drivers.
inline util::ArgParser make_figure_parser(const std::string& name,
                                          const std::string& summary) {
  util::ArgParser parser(name, summary);
  parser.add_num("--effort", 1.0,
                 "Monte-Carlo effort multiplier (0.1 = quick smoke run)",
                 {.lo = 0.0, .open = true});
  parser.add_int("--seed", 20030324, "root RNG seed");
  parser.add_choice("--backend", "sim", {"sim", "live"},
                    "PIAT backend: 'sim' (testbed) or 'live' (loopback UDP)");
  parser.add_num("--live-tau-scale", 0.1,
                 "with --backend live: scale factor on the policy tau");
  parser.add_flag("--csv", "emit CSV rows instead of the aligned table");
  parser.add_flag("--no-plot", "suppress the ASCII plot");
  return parser;
}

inline core::FigureOptions figure_options(const util::ArgParser& args) {
  core::FigureOptions opt;
  opt.effort = args.num("--effort");
  opt.seed = static_cast<std::uint64_t>(args.integer("--seed"));
  if (args.str("--backend") == "live") {
    core::LiveBackendOptions live;
    live.tau_scale = args.num("--live-tau-scale");
    opt.backend = core::make_live_backend(live);
  }
  return opt;
}

/// Print a FigureSeries per the parsed options.
inline void print_figure(const core::FigureSeries& fig,
                         const util::ArgParser& args, bool log_x = false,
                         bool log_y = false) {
  std::vector<std::string> header = {fig.x_label};
  for (const auto& c : fig.curves) header.push_back(c.name);
  util::TextTable table(header);
  for (std::size_t i = 0; i < fig.x.size(); ++i) {
    std::vector<std::string> row;
    row.push_back(log_x ? util::fmt_sci(fig.x[i], 3) : util::fmt(fig.x[i], 4));
    for (const auto& c : fig.curves) {
      row.push_back(log_y ? util::fmt_sci(c.y[i], 3) : util::fmt(c.y[i], 4));
    }
    table.add_row(std::move(row));
  }

  if (args.flag("--csv")) {
    table.write_csv(std::cout);
    return;
  }

  std::cout << "== " << fig.title << " ==\n\n" << table.to_string() << '\n';

  if (!args.flag("--no-plot")) {
    std::vector<util::Series> series;
    for (const auto& c : fig.curves) {
      series.push_back(util::Series{c.name, fig.x, c.y});
    }
    util::PlotOptions plot;
    plot.log_x = log_x;
    plot.log_y = log_y;
    plot.x_label = fig.x_label;
    plot.y_label = fig.y_label;
    if (!log_y) {
      plot.y_fixed = true;
      plot.y_min = 0.3;
      plot.y_max = 1.0;
    }
    std::cout << util::render_plot(series, plot);
  }
}

}  // namespace linkpad::bench
