"""Host-time performance harness for the whole INCA stack.

Eight named workloads, fifteen end-to-end metrics and a per-layer ledger,
measured from outside the program by timing calls into its public
functions.  ``python -m benchmarks.perf`` runs every workload untraced and
then traced; ``BENCHMARK.json`` at the repository root names the
single-workload form an external driver runs.  See ``README.md`` here.
"""
