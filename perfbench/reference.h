#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

namespace perfbench {

/// Runs the benchmark's fixed reference job once and returns its seconds.
/// The job is hash-table inserts and lookups, a sort and a chain of
/// dependent multiplies; it takes about 10 ms.
double reference_job();

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H
