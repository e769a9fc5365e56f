"""Property-based guarantees of the compressor.

The error-bound contract must hold for *any* finite input and any
positive bound — this is the invariant everything downstream (the error
models, the quality budgets) relies on.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression.api import CompressorSpec, resolve_compressor
from repro.compression.sz import SZCompressor

_field = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=3, max_dims=3, min_side=2, max_side=6),
    elements=st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False),
)


# The bound contract carries a tiny relative slack: representing 2*eb in
# binary and round-half-even ties cost a few ulps (real SZ shares this).
_BOUND_SLACK = 1e-9


def _bound_limit(data: np.ndarray, eb: float) -> float:
    """The float-arithmetic ceiling of the |x - x'| <= eb contract.

    At a round-half-even tie the real-arithmetic error equals ``eb``
    exactly, and the reconstruction product ``q * (2*eb)`` can land a
    few ulps past it *at the data's magnitude* — e.g. data 7725311.0
    with eb = 1/3 reconstructs 0.67 ulp(data) beyond the bound in pure
    float64.  So the slack scales with both ``eb`` and ``max |data|``.
    """
    return (
        eb * (1 + _BOUND_SLACK)
        + 4.0 * float(np.spacing(np.max(np.abs(data), initial=1.0)))
        + 1e-12
    )


@given(_field, st.floats(1e-3, 1e3))
@example(np.full((2, 2, 2), 7725311.0), 1 / 3)  # tie at large magnitude
@settings(max_examples=50, deadline=None)
def test_abs_error_bound_always_holds(data, eb):
    comp = SZCompressor()
    recon = comp.decompress(comp.compress(data, eb))
    assert np.max(np.abs(recon - data)) <= _bound_limit(data, eb)


@given(_field, st.floats(1e-2, 10.0))
@settings(max_examples=30, deadline=None)
def test_round_trip_deterministic(data, eb):
    comp = SZCompressor()
    b1 = comp.compress(data, eb)
    b2 = comp.compress(data, eb)
    assert b1.payloads["codes"] == b2.payloads["codes"]
    assert np.array_equal(comp.decompress(b1), comp.decompress(b2))


@given(_field)
@settings(max_examples=30, deadline=None)
def test_idempotent_on_reconstruction(data):
    """Compressing an already-reconstructed field at the same bound is lossless.

    Reconstructed values sit exactly on the quantization lattice, so a
    second pass reproduces them bit-for-bit — a known fixed-point
    property of lattice quantizers.
    """
    comp = SZCompressor()
    eb = 0.5
    recon1 = comp.decompress(comp.compress(data, eb))
    recon2 = comp.decompress(comp.compress(recon1, eb))
    assert np.allclose(recon1, recon2, rtol=0, atol=1e-9)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=(4, 4, 4),
        elements=st.floats(0.0, 1e6, allow_nan=False),
    ).filter(lambda a: (a > 0).all()),
    st.floats(1e-3, 0.5),
)
@settings(max_examples=30, deadline=None)
def test_pw_rel_bound_always_holds(data, rel):
    comp = SZCompressor(mode="pw_rel")
    recon = comp.decompress(comp.compress(data, rel))
    assert np.max(np.abs(recon / data - 1.0)) <= rel * (1 + 1e-9) + 1e-12


@given(_field, st.floats(1e-2, 10.0))
@example(np.full((2, 2, 2), 7725311.0), 1 / 3)  # tie at large magnitude
@settings(max_examples=20, deadline=None)
def test_dual_and_classic_engines_agree_on_bound(data, eb):
    """Both quantization orderings satisfy the same contract."""
    for engine in ("dual", "classic"):
        comp = resolve_compressor(CompressorSpec.sz(engine=engine))
        recon = comp.decompress(comp.compress(data, eb))
        assert np.max(np.abs(recon - data)) <= _bound_limit(data, eb)
