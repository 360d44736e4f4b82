// Host calibration: how many cores this host really gives us right now.
//
// A fixed spin loop runs on one thread, then on `threads` threads at once;
// effective cores is the aggregate rate over the single-thread rate. Run
// before and after the measured window, the two readings and their drift
// annotate the run (not gated): a contended host shows up next to the
// numbers it produced.

#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

namespace perfbench {

// Effective cores over `threads` spinning threads, each spinning for about
// `seconds`.
double EffectiveCores(int threads, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
