import os

import pytest

# Single-worker by default so unit runs are quick and scheduling-stable.
# Tests that exercise the worker-count invariance override this via
# monkeypatch; an explicit RISNOMA_WORKERS in the environment wins.
os.environ.setdefault("RISNOMA_WORKERS", "1")

# pyproject's pythonpath puts this checkout's src first for pytest itself;
# the tests' `python -m risnoma` subprocesses find it through PYTHONPATH
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def draws(monkeypatch):
    """draws(points, n) runs run_points at one worker, seed 42, and returns
    the (sampler name, R) of every fading draw it made, with its results."""
    from risnoma import montecarlo

    calls = []
    for name in ("_sample_aligned_batch", "_sample_random_phase_batch"):
        sample = getattr(montecarlo, name)

        def counting(cfg, rng, n, name=name, sample=sample, **kwargs):
            calls.append((name, cfg.R))
            return sample(cfg, rng, n, **kwargs)

        monkeypatch.setattr(montecarlo, name, counting)
    monkeypatch.setenv("RISNOMA_WORKERS", "1")

    def run(points, n=montecarlo.CHUNK_TRIALS):
        calls.clear()
        got = montecarlo.run_points(points, n, 42)
        return list(calls), got

    return run
