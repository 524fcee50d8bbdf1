"""The fast path: cold-start isolation, vectorization reference, parallel
benchmarks.

Three pieces, one goal — make the full figure/ablation matrix cheap enough
to iterate on:

- :mod:`repro.perf.cache` — :func:`~repro.perf.cache.fresh_cache`, which
  empties the MapCal table memo for cold-build timing and counts its
  traffic;
- :mod:`repro.perf.reference` — the *scalar* per-VM/per-PM reference tick,
  kept as the ground truth the vectorized
  :class:`~repro.simulation.datacenter.Datacenter` fast path is verified
  bit-identical against;
- :mod:`repro.perf.bench` — the parallel experiment runner behind
  ``python -m repro bench [--parallel N] [--filter GLOB]``.

Everything is imported lazily: ``bench`` pulls in the whole experiments
package, and ``cache`` the core modules.
"""

__all__ = [
    "fresh_cache",
    "ScalarReferenceDatacenter",
    "BenchJobResult",
    "iter_job_names",
    "job_seed",
    "run_bench",
]

_LAZY = {
    "fresh_cache": "repro.perf.cache",
    "ScalarReferenceDatacenter": "repro.perf.reference",
    "BenchJobResult": "repro.perf.bench",
    "iter_job_names": "repro.perf.bench",
    "job_seed": "repro.perf.bench",
    "run_bench": "repro.perf.bench",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
