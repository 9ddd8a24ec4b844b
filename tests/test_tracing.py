"""The benchmark's per-layer trace (bench/tracing.py) still finds the
program's boundaries, so a rename cannot take a layer out of it unseen."""

import types
from pathlib import Path

from simreg import (  # noqa: F401  every module the trace wraps, loaded
    cli,
    config,
    data,
    encoder,
    evaluation,
    gradcheck,
    labelmap,
    losses,
    synth,
    training,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# boundaries the trace names that the program does not have: each was folded
# into a larger function, whose own boundary the trace still records, or, as
# labelmap.encode, removed with no caller left
MISSING_TODAY = {
    "labelmap.build_mapping",
    "labelmap.encode",
    "losses.regression_loss",
    "encoder.tokenize",
    "encoder.predict",
    "training.optimizer_step",
}


def load_tracing():
    """bench/tracing.py as a module, run from its source text, so nothing is
    written beside it."""
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_the_trace_misses_no_boundary_but_those_missing_today():
    tracer = load_tracing().Tracer()
    original = encoder.forward_backward
    try:
        tracer.install(0)
        assert set(tracer.missing) <= MISSING_TODAY
        assert encoder.forward_backward is not original  # wrapped where it lives
        assert gradcheck.forward_backward is encoder.forward_backward  # and where imported
    finally:
        tracer.uninstall()
    assert encoder.forward_backward is gradcheck.forward_backward is original
