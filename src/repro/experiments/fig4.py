"""Fig. 4: conditional PDFs of measured vs cVAE-GAN voltages per P/E count.

For each P/E cycle count the figure overlays the measured conditional PDF of
every programmed level (1..7) with the PDF estimated from the generative
model's output on the same program-level arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel import resolve_channel
from repro.eval.divergences import total_variation_distance
from repro.eval.histograms import conditional_pdfs
from repro.eval.report import format_table
from repro.exec import RecordReducer, stable_seed
from repro.experiments.common import sweep
from repro.flash.cell import NUM_LEVELS

__all__ = ["Fig4Result", "run_fig4"]


@dataclass
class Fig4Result:
    """Measured and modeled conditional PDFs at each P/E cycle count."""

    measured: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]]
    modeled: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]]
    peak_summary: list[dict]

    def rows(self) -> list[dict]:
        return self.peak_summary

    def format(self) -> str:
        header = ("Fig. 4 — conditional PDF summary "
                  "(peak height / distribution width per level and P/E count)")
        return "\n".join([header, format_table(self.peak_summary,
                                               float_format="{:.4f}")])


def _distribution_width(centers: np.ndarray, probabilities: np.ndarray) -> float:
    mean = float(np.sum(centers * probabilities))
    return float(np.sqrt(np.sum((centers - mean) ** 2 * probabilities)))


def _fig4_condition_task(unit, rng, *, model, levels, bins):
    """PDF comparison at one P/E cycle count — plan task.

    The unit carries its own measured arrays, so a shard is pickled with
    exactly the conditions it evaluates rather than the whole dataset.
    """
    pe, program, voltages = unit
    generated = model.read_voltages(program, pe, rng=rng)
    measured = conditional_pdfs(program, voltages, levels=levels, bins=bins)
    modeled = conditional_pdfs(program, generated, levels=levels, bins=bins)
    summary = []
    for level in levels:
        centers, measured_probabilities = measured[level]
        _, modeled_probabilities = modeled[level]
        summary.append({
            "pe_cycles": pe,
            "level": level,
            "measured_peak": float(measured_probabilities.max()),
            "modeled_peak": float(modeled_probabilities.max()),
            "measured_width": _distribution_width(centers,
                                                  measured_probabilities),
            "modeled_width": _distribution_width(centers,
                                                 modeled_probabilities),
            "tv_distance": total_variation_distance(measured_probabilities,
                                                    modeled_probabilities),
        })
    return {"pe": pe, "measured": measured, "modeled": modeled,
            "summary": summary}


def run_fig4(measured_arrays: dict[int, tuple[np.ndarray, np.ndarray]],
             model,
             levels: tuple[int, ...] = tuple(range(1, NUM_LEVELS)),
             bins: int = 150,
             executor=None, workers: int | None = None) -> Fig4Result:
    """Regenerate Fig. 4.

    Parameters
    ----------
    measured_arrays:
        Mapping from P/E cycle count to a pair ``(program_levels, voltages)``
        of measured evaluation arrays, shape ``(N, H, W)`` each.
    model:
        Any channel backend whose conditional PDFs are compared against the
        measured arrays — a registered name or a
        :class:`repro.channel.ChannelModel` (typically the trained
        :class:`repro.channel.GenerativeChannel`).
    levels:
        Program levels whose PDFs are estimated (1..7 in the paper).
    bins:
        Histogram resolution.
    executor / workers:
        Execution backend for the per-condition sweep
        (:func:`repro.exec.build_executor`); one plan unit per P/E count.
    """
    model = resolve_channel(model)
    seed = int(model.rng.integers(0, 2 ** 31))
    units = [(pe, *measured_arrays[pe]) for pe in sorted(measured_arrays)]
    records = sweep(_fig4_condition_task, units,
                    seed=stable_seed("fig4", seed),
                    context=dict(model=model, levels=tuple(levels),
                                 bins=bins),
                    reducer=RecordReducer(),
                    executor=executor, workers=workers)
    measured = {record["pe"]: record["measured"] for record in records}
    modeled = {record["pe"]: record["modeled"] for record in records}
    summary = [row for record in records for row in record["summary"]]
    return Fig4Result(measured=measured, modeled=modeled, peak_summary=summary)
