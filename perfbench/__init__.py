"""Benchmark of the affine12 package: workloads, checks, tracing and the run entry point."""

# Thread-count variables of numpy, scipy and the BLAS builds they may load;
# the entry point sets them before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
