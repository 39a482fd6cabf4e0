/**
 * @file
 * Umbrella header for the wavelet dI/dt characterization library.
 *
 * Public API surface, by subsystem:
 *  - wavelet/  : Haar/Daubechies DWT, subbands, scalograms, statistics
 *  - power/    : second-order supply network, convolution, stimuli
 *  - sim/      : cycle-level out-of-order processor with Wattch-style
 *                power accounting (paper Table 1 machine)
 *  - workload/ : synthetic SPEC CPU2000 profiles and trace generation
 *  - core/     : offline wavelet variance characterization and online
 *                wavelet-convolution dI/dt control (the paper's
 *                contribution)
 *  - runner/   : parallel experiment campaigns (plan / executor split)
 *                with a content-addressed trace cache and structured
 *                JSON/CSV results
 *  - serve/    : the didt_serve daemon — characterization requests
 *                over Unix/TCP sockets, each run as its own campaign
 *                on one shared worker pool and byte-budgeted
 *                trace-cache tier
 *  - obs/      : metrics registry, scoped timers, and Chrome trace
 *                spans across all of the above
 *  - verify/   : deterministic fault-injection failpoints and the
 *                online-vs-reference differential oracle
 */

#ifndef DIDT_DIDT_HH
#define DIDT_DIDT_HH

#include "core/controller.hh"
#include "core/chip_cosim.hh"
#include "core/cosim.hh"
#include "core/emergency_estimator.hh"
#include "core/experiment.hh"
#include "core/monitor.hh"
#include "core/online_characterizer.hh"
#include "core/variance_model.hh"
#include "core/window_analysis.hh"
#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "obs/scoped_timer.hh"
#include "obs/trace_event.hh"
#include "power/convolution.hh"
#include "runner/campaign.hh"
#include "runner/executor.hh"
#include "runner/plan.hh"
#include "runner/result_json.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "power/multistage.hh"
#include "power/stimulus.hh"
#include "power/supply_network.hh"
#include "power/trace_io.hh"
#include "sim/bpred.hh"
#include "sim/cache.hh"
#include "sim/chip.hh"
#include "sim/config.hh"
#include "sim/instruction.hh"
#include "sim/power_model.hh"
#include "sim/processor.hh"
#include "stats/chi_square.hh"
#include "stats/gaussian.hh"
#include "stats/histogram.hh"
#include "stats/running_stats.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/shutdown.hh"
#include "util/types.hh"
#include "verify/failpoint.hh"
#include "verify/oracle.hh"
#include "wavelet/basis.hh"
#include "wavelet/dwt.hh"
#include "wavelet/flat_decomposition.hh"
#include "wavelet/fourier.hh"
#include "wavelet/modwt.hh"
#include "wavelet/scalogram.hh"
#include "wavelet/subband.hh"
#include "wavelet/wavelet_stats.hh"
#include "workload/generator.hh"
#include "workload/mix.hh"
#include "workload/profile.hh"

#endif // DIDT_DIDT_HH
