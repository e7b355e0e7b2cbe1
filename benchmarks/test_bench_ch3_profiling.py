"""Microbench of the chapter 3 kernel profiler; the profiling tables'
thesis asserts live in ``tests/paper``."""


def test_bench_charlotte_profiler_run(benchmark):
    """Microbench: one instrumented null-RPC kernel run."""
    from repro.profiling import CHARLOTTE, kernel_run

    benchmark(kernel_run, CHARLOTTE, 50)
