"""Model-mode selection: the ratio-quality engine as a runtime decision.

Exact selection calibrates every error-bounded candidate by compressing
sample partitions; model mode reads the same rates from one batched
quantization probe per bound (``docs/rq-model.md``).  Both rank the
candidates by predicted rate at the field's admissible bound.  This demo
runs both on a Nyx-like snapshot and shows that the verdicts agree while
the compressor is invoked an order of magnitude less, then
prints the per-field predicted-vs-measured PSNR/ratio deltas behind
that trust.

Run::

    PYTHONPATH=src python examples/rq_selection.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import error_summary
from repro.compression.sz import SZCompressor
from repro.compression.zfp_like import ZFPLikeCompressor
from repro.core.config import FieldSpec
from repro.core.selection import select_compressor
from repro.parallel.decomposition import BlockDecomposition
from repro.sim.nyx import NyxSimulator
from repro.util.tables import format_table


class CallCounter:
    """Count the blocks the candidate families compress: one per
    ``compress`` call, one per view of an SZ ``compress_many`` batch
    (``zfp_like``'s batch is a loop over its own ``compress``)."""

    def __init__(self) -> None:
        self.calls = 0
        self._originals = [
            (cls, cls.compress) for cls in (SZCompressor, ZFPLikeCompressor)
        ]
        self._original_many = SZCompressor.compress_many

    def __enter__(self) -> "CallCounter":
        for cls, original in self._originals:

            def counted(comp, *args, _original=original, **kwargs):
                self.calls += 1
                return _original(comp, *args, **kwargs)

            cls.compress = counted

        def counted_many(comp, views, *args, **kwargs):
            self.calls += len(views)
            return self._original_many(comp, views, *args, **kwargs)

        SZCompressor.compress_many = counted_many
        return self

    def __exit__(self, *exc) -> None:
        for cls, original in self._originals:
            cls.compress = original
        SZCompressor.compress_many = self._original_many


def main() -> None:
    shape = (32, 32, 32)
    sim = NyxSimulator(shape=shape, box_size=float(shape[0]), seed=7, sigma_delta0=2.5)
    snapshot = sim.snapshot(z=1.0)
    decomposition = BlockDecomposition(shape, blocks=2)

    # -- selection: exact vs model, same spec, count the codec ------------
    def select_all(mode: str):
        results = {}
        for name, data in snapshot.fields.items():
            results[name] = select_compressor(
                data,
                decomposition,
                field_spec=FieldSpec(spectrum_tolerance=0.02),
                field=name,
                probe_mode=mode,
            )
        return results

    with CallCounter() as exact_counter:
        exact = select_all("exact")
    with CallCounter() as model_counter:
        model = select_all("model")

    rows = [
        [
            name,
            f"{exact[name].eb_avg:.4g}",
            exact[name].chosen.family,
            model[name].chosen.family,
            "yes" if str(model[name].chosen) == str(exact[name].chosen) else "NO",
        ]
        for name in snapshot.fields
    ]
    print(
        format_table(
            ["field", "admissible eb", "exact pick", "model pick", "agree"],
            rows,
            title="selection parity: exact vs probe_mode='model'",
        )
    )
    reduction = exact_counter.calls / max(model_counter.calls, 1)
    print(
        f"\ncompressor invocations: {exact_counter.calls} exact -> "
        f"{model_counter.calls} model ({reduction:.0f}x fewer)"
    )

    # -- the trust behind it: predicted vs measured, one field ------------
    comp = SZCompressor()
    rows = []
    for name, data in snapshot.fields.items():
        eb = max(float(np.ptp(data)) * 3e-3, 1e-12)
        est = comp.estimate(data, eb)  # one quantize pass, no codec
        block = comp.compress(data, eb)
        measured = error_summary(data, comp.decompress(block))
        rows.append(
            [
                name,
                f"{est.predicted_psnr_db:.2f}",
                f"{measured.psnr_db:.2f}",
                f"{est.ratio:.2f}",
                f"{block.ratio:.2f}",
            ]
        )
    print()
    print(
        format_table(
            ["field", "pred PSNR", "meas PSNR", "pred ratio", "meas ratio"],
            rows,
            title="probe accuracy (RQEstimate vs real compress/decompress)",
        )
    )
    print()
    print("same picks, several-fold fewer codec runs (>= 10x on the")
    print("benchmark's 64^3 slate) — the ratio-quality model turns")
    print("trial-and-error into arithmetic.")


if __name__ == "__main__":
    main()
