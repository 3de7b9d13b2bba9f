"""The evaluation's artifacts: one producer per file of ``benchmarks/results``.

:data:`ARTIFACTS` maps each artifact name to its params (seeds, drop
ratios), a run function that returns JSON-ready rows, and a renderer
that turns those rows into the artifact's text. ``repro-rtc
experiments`` prints artifacts or, with ``--out``, writes
``<name>.json`` (the rows at full precision, the params and
:data:`~repro.pipeline.parallel.CACHE_SCHEMA_VERSION`) and the
``<name>.txt`` rendered from that JSON. Runs go through
:func:`~repro.pipeline.parallel.run_many`, so they use the configured
cache and workers. Other params are a library call, never a CLI
flag: ``render(produce("figure4", seeds=(1, 2, 3, 4, 5)))``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from ..pipeline.parallel import CACHE_SCHEMA_VERSION, run_many
from . import ablations, comparison, extensions, figures, scenarios, table1


@dataclass(frozen=True)
class Artifact:
    """One artifact: ``render(run(**params))`` is its text.

    ``run`` returns JSON-ready rows; ``render`` reads them as objects
    with one attribute per field (see :func:`render`).
    """

    params: dict
    run: Callable[..., list[dict]]
    render: Callable[[list], str]


_SEEDS = (1, 2, 3)

# The params of most artifacts: the drop to 20%, seeds 1–3.
_DROP = {"drop_ratio": 0.2, "seeds": _SEEDS}


def _rows(experiment, formatter, title: str, params=_DROP) -> Artifact:
    """An experiment that returns one dataclass row per variant."""
    return Artifact(
        params,
        run=lambda **p: [dataclasses.asdict(r) for r in experiment(**p)],
        render=lambda rows: formatter(rows, title),
    )


def _paired(experiment, title: str) -> Artifact:
    """An ablation that returns (label, baseline, adaptive) triples."""
    asdict = dataclasses.asdict
    return Artifact(
        _DROP,
        run=lambda **p: [
            {"point": label, "baseline": asdict(base), "adaptive": asdict(adap)}
            for label, base, adap in experiment(**p)
        ],
        render=lambda rows: ablations.format_paired_rows(
            [(r.point, r.baseline, r.adaptive) for r in rows], title
        ),
    )


def _figure(experiment, title: str, **params) -> Artifact:
    """A figure: one row per series, under the key the figure uses."""
    return Artifact(
        params,
        run=lambda **p: [
            {"key": key, **dataclasses.asdict(series)}
            for key, series in experiment(**p).items()
        ],
        render=lambda rows: figures.format_figure(
            {r.key: r for r in rows}, title
        ),
    )


def _table1(ratios, seeds) -> list[dict]:
    batch, spans = table1.plan_batch(ratios=ratios, seeds=seeds)
    rows = table1.rows_from_results(run_many(batch), spans)
    return table1.rows_to_dicts(rows)


def _comparison(drop_ratio, seeds) -> list[comparison.PolicyRow]:
    batch = comparison.plan_batch(drop_ratio, seeds)
    return comparison.rows_from_results(run_many(batch), seeds)


def _all_policies(drop_ratio: float) -> Artifact:
    return _rows(
        _comparison,
        comparison.format_comparison,
        f"All policies — drop to {drop_ratio:.0%} of capacity",
        {"drop_ratio": drop_ratio, "seeds": _SEEDS},
    )


#: Every artifact by name, in the order ``repro-rtc experiments`` runs
#: them.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(
        {"ratios": scenarios.TABLE1_DROP_RATIOS, "seeds": scenarios.TABLE1_SEEDS},
        run=_table1,
        render=table1.format_table,
    ),
    "figure1": _figure(
        figures.figure1, "Figure 1 — baseline timeline during a drop to 20%",
        drop_ratio=0.2, seed=1,
    ),
    "figure2": _figure(
        figures.figure2, "Figure 2 — frame latency, baseline vs adaptive",
        drop_ratio=0.2, seed=1,
    ),
    "figure3": _figure(
        figures.figure3, "Figure 3 — latency CDF over a five-drop session",
        seed=1,
    ),
    "figure4": _figure(
        figures.figure4, "Figure 4 — reduction & quality delta vs severity",
        ratios=(0.8, 0.6, 0.45, 0.3, 0.2, 0.12), seeds=_SEEDS,
    ),
    "ablation_a_detector": _rows(
        ablations.detector_ablation, ablations.format_rows,
        "Ablation A — detector signals",
    ),
    "ablation_b_strategies": _rows(
        ablations.strategy_ablation, ablations.format_rows,
        "Ablation B — strategies",
    ),
    "ablation_c_rtt": _rows(
        ablations.rtt_sensitivity, ablations.format_rows,
        "Ablation C1 — RTT sensitivity",
    ),
    "ablation_c_feedback": _rows(
        ablations.feedback_interval_sensitivity, ablations.format_rows,
        "Ablation C2 — feedback-interval sensitivity",
    ),
    "ablation_d_queue_depth": _paired(
        ablations.queue_depth_sensitivity,
        "Ablation D1 — bottleneck buffer depth",
    ),
    "ablation_d_content": _paired(
        ablations.content_sensitivity, "Ablation D2 — content classes"
    ),
    "comparison_severe": _all_policies(0.2),
    "comparison_mild": _all_policies(0.6),
    "extension_e_estimators": _rows(
        extensions.estimator_comparison, extensions.format_extension_rows,
        "Abl. E — GCC delay estimator (trendline vs Kalman)",
    ),
    "extension_f_recovery": _rows(
        extensions.recovery_mechanism_comparison,
        extensions.format_extension_rows,
        "Ext. F — loss recovery: PLI vs NACK vs FEC (2% loss, 40 ms RTT)",
        {"seeds": _SEEDS},
    ),
    "extension_g_aqm": _rows(
        extensions.aqm_comparison, extensions.format_extension_rows,
        "Ext. G — bottleneck discipline: drop-tail vs CoDel",
    ),
    "extension_h_recovery": _rows(
        extensions.fast_recovery_comparison, extensions.format_recovery_rows,
        "Ext. H — post-drop recovery (t = 25–35 s, capacity restored "
        "at t = 20 s)",
    ),
    "extension_i_audio": _rows(
        extensions.audio_impact, extensions.format_audio_rows,
        "Ext. I — audio latency during the video drop (to 20%)",
    ),
    "extension_j_fairness": _rows(
        extensions.fairness_comparison, extensions.format_fairness_rows,
        "Ext. J — two flows sharing a 4→1 Mbps bottleneck "
        "(post-drop split, drop-window latency)",
        {"seeds": _SEEDS},
    ),
    "extension_k_simulcast": _rows(
        extensions.simulcast_comparison, extensions.format_simulcast_rows,
        "Ext. K — production simulcast (SFU layer switch) vs encoder "
        "adaptation (drop to 20%)",
    ),
}


def produce(name: str, **params) -> dict:
    """Run one artifact: its JSON payload (name, params, schema, rows).

    ``params`` override the entry's own; the committed artifacts use
    none.
    """
    entry = ARTIFACTS[name]
    params = {**entry.params, **params}
    return {
        "artifact": name,
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "params": params,
        "rows": entry.run(**params),
    }


def render(payload: dict) -> str:
    """The artifact's text, ``<name>.txt``, from its payload alone.

    The rows go through JSON and come back as objects with one
    attribute per field, which is all the formatters read, so a
    payload read from ``<name>.json`` renders like a fresh one.
    """
    rows = json.loads(
        json.dumps(payload["rows"]),
        object_hook=lambda fields: SimpleNamespace(**fields),
    )
    return ARTIFACTS[payload["artifact"]].render(rows) + "\n"


def write(name: str, out_dir: Path | str) -> tuple[Path, Path]:
    """Produce ``name`` into ``out_dir`` as ``<name>.json`` and the
    ``<name>.txt`` rendered from it."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = produce(name)
    json_path = directory / f"{name}.json"
    txt_path = directory / f"{name}.txt"
    json_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    txt_path.write_text(render(payload), encoding="utf-8")
    return json_path, txt_path
