// Umbrella header for the observability layer. Instrumented code includes
// this one header and uses:
//
//   RERAMDL_TRACE_SCOPE("xbar.compute", "circuit");      // wall-clock span
//   obs::ScopedHistogramTimer t("xbar.batch_mvm_ns");    // latency histogram
//   if (obs::metrics_enabled()) {
//     static obs::Counter& c =
//         obs::Registry::instance().counter("xbar.batch_mvms");
//     c.add();
//   }
//
// Runtime switches: RERAMDL_TRACE=<path> (Chrome trace-event JSON, open in
// Perfetto), RERAMDL_METRICS=<path> (registry dump incl. time-series
// snapshots), and RERAMDL_REPORT=<path> (attribution run report), all
// written at process exit. Disabled cost is one relaxed atomic load per
// site; the RERAMDL_OBS=OFF CMake option (-DRERAMDL_OBS_DISABLED) removes
// the span macro at compile time.
#pragma once

#include "obs/attribution.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "obs/summary.hpp"
#include "obs/trace.hpp"
