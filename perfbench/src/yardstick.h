// The yardstick: a fixed job that is timed right after every op, so that
// op times can be reported in yardsticks as well as in seconds.
//
// The host is shared. Other tenants' load slows this process by up to 2.4x
// for seconds to minutes at a time, and the slowdown is largest for code
// that churns the allocator and the caches, as the simulator does. Dividing
// an op's time by the yardstick's time measured in the same second cancels
// most of it. The job is allocator churn of small vectors, about 0.3 ms on
// an unloaded core; of the four candidate jobs tried (a dependent arithmetic
// chain, pointer chases, random increments, this one), it slowed most like
// the ops of every workload. It runs twice and the second run is timed, so
// what the op left in the caches does not count. It shares nothing with the
// library but the process heap.
#pragma once

namespace perfbench {

/// Runs the yardstick and returns its wall time in seconds.
double yardstick_s();

}  // namespace perfbench
