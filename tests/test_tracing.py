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
# labelmap.encode and encoder.forward_backward, removed (the joint step is
# prepare_forward_backward's, which training and the gradient check call)
MISSING_TODAY = {
    "labelmap.build_mapping",
    "labelmap.encode",
    "losses.regression_loss",
    "encoder.tokenize",
    "encoder.predict",
    "encoder.forward_backward",
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
    try:
        tracer.install(0)
        assert set(tracer.missing) <= MISSING_TODAY
    finally:
        tracer.uninstall()


def test_the_joint_step_preparer_is_wrapped_where_it_lives_and_where_imported():
    """The one way into the joint step can be traced for training and the
    gradient check alike: encoder defines it, and both import it by name."""
    patches = load_tracing().Patches()
    original = encoder.prepare_forward_backward
    try:
        assert patches.replace("simreg.encoder", "prepare_forward_backward",
                               lambda fn: lambda *args, **kwargs: fn(*args, **kwargs))
        assert encoder.prepare_forward_backward is not original
        assert (gradcheck.prepare_forward_backward is training.prepare_forward_backward
                is encoder.prepare_forward_backward)
    finally:
        patches.restore()
    assert (encoder.prepare_forward_backward is gradcheck.prepare_forward_backward
            is training.prepare_forward_backward is original)
