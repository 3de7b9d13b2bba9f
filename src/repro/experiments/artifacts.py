"""The evaluation's experiments: one registry plans, runs and renders each.

:data:`ARTIFACTS` maps each experiment name to its default params, a
``plan(**params)`` that returns the experiment's whole batch of
configs, a ``fold(results, **params)`` that turns the batch's results
(in batch order, quarantined cells as
:class:`~repro.pipeline.supervisor.FailedSession`) into JSON-ready
rows, and a ``render(rows, params, fmt)`` that writes the text.

:func:`produce` is the one place a batch runs: it resolves the params,
plans the batch, runs it through
:func:`~repro.pipeline.parallel.run_many` (so under the configured
cache, workers and supervision) and returns the payload that
``<name>.json`` holds: the rows at full precision, the params, each
cell's config hash in batch order, and
:data:`~repro.pipeline.parallel.CACHE_SCHEMA_VERSION`. :func:`render`
turns a payload, fresh or read back from ``<name>.json``, into text.
``repro-rtc experiments`` writes both files; ``repro-rtc table1``,
``chaos`` and ``fleet`` print their entries with flags for the params;
and ``repro-rtc shard plan`` splits any entry's batch across hosts
(:mod:`repro.pipeline.shards`). Other params are a library call:
``render(produce("figure4", seeds=[1, 2, 3, 4, 5]))``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from ..errors import ConfigError
from ..pipeline.config import PolicyName
from ..pipeline.parallel import CACHE_SCHEMA_VERSION, config_hash, run_many
from . import (
    ablations,
    comparison,
    extensions,
    figures,
    fleet,
    robustness,
    scenarios,
    table1,
)
from .scenarios import batch_of, fold_variants


@dataclass(frozen=True)
class Artifact:
    """One experiment: ``render(fold(results, **p), p, fmt)`` over the
    results of ``plan(**p)``.

    ``render`` reads rows as objects with one attribute per field (see
    :func:`render`) and returns text ending in a newline, in any of
    ``formats``.
    """

    params: dict
    plan: Callable[..., list]
    fold: Callable[..., list]
    render: Callable[[list, dict, str], str]
    formats: tuple[str, ...] = ("table",)


_SEEDS = (1, 2, 3)

# The params of most artifacts: the drop to 20%, seeds 1–3.
_DROP = {"drop_ratio": 0.2, "seeds": _SEEDS}


def _titled(formatter, title: str):
    """A ``render`` through ``formatter(rows, title)``, table only."""
    return lambda rows, params, fmt: formatter(rows, title) + "\n"


def _variants(
    variants, row, formatter, title: str, params=_DROP,
    to_json=dataclasses.asdict,
) -> Artifact:
    """An experiment of variants (labelled config groups), one row each."""
    return Artifact(
        params,
        plan=lambda **p: batch_of(variants(**p)),
        fold=lambda results, **p: [
            to_json(r) for r in fold_variants(results, variants(**p), row)
        ],
        render=_titled(formatter, title),
    )


def _extension(variants, row, formatter, title, params=_DROP) -> Artifact:
    return _variants(
        variants, row, formatter, title, params, to_json=extensions.row_dict
    )


def _paired(points, title: str) -> Artifact:
    """An ablation of points, each a baseline and an adaptive variant."""

    def fold(results, **p) -> list[dict]:
        pairs = points(**p)
        rows = iter(
            fold_variants(
                results,
                [v for _point, variants in pairs for v in variants],
                ablations.averaged_row,
            )
        )
        return [
            {
                "point": point,
                "baseline": dataclasses.asdict(next(rows)),
                "adaptive": dataclasses.asdict(next(rows)),
            }
            for point, _variants in pairs
        ]

    return Artifact(
        _DROP,
        plan=lambda **p: [
            c for _point, variants in points(**p) for c in batch_of(variants)
        ],
        fold=fold,
        render=lambda rows, params, fmt: ablations.format_paired_rows(
            [(r.point, r.baseline, r.adaptive) for r in rows], title
        ) + "\n",
    )


def _figure(plan, fold, title: str, **params) -> Artifact:
    """A figure: one row per series, under the key the figure uses."""
    return Artifact(
        params,
        plan=plan,
        fold=lambda results, **p: [
            {"key": key, **dataclasses.asdict(series)}
            for key, series in fold(results, **p).items()
        ],
        render=lambda rows, params, fmt: figures.format_figure(
            {r.key: r for r in rows}, title
        ) + "\n",
    )


def _table1_fold(results, ratios, seeds) -> list[dict]:
    _batch, spans = table1.plan_batch(ratios=ratios, seeds=seeds)
    return table1.rows_to_dicts(table1.rows_from_results(results, spans))


def _all_policies(drop_ratio: float) -> Artifact:
    return Artifact(
        {"drop_ratio": drop_ratio, "seeds": _SEEDS},
        plan=comparison.plan_batch,
        fold=lambda results, drop_ratio, seeds: [
            dataclasses.asdict(row)
            for row in comparison.rows_from_results(results, seeds)
        ],
        render=_titled(
            comparison.format_comparison,
            f"All policies — drop to {drop_ratio:.0%} of capacity",
        ),
    )


def _chaos_args(p: dict) -> dict:
    """``robustness.plan_batch``'s arguments for the chaos params."""
    return {
        "scenario_names": tuple(p["scenarios"]),
        "fault_names": tuple(p["faults"]),
        "policies": tuple(PolicyName(name) for name in p["policies"]),
        "seeds": tuple(p["seeds"]),
        "duration": p["duration"],
        "fault_at": p["fault_at"],
    }


def _chaos_render(rows, p: dict, fmt: str) -> str:
    report = robustness.RobustnessReport(
        scenarios=tuple(p["scenarios"]),
        faults=tuple(p["faults"]),
        policies=tuple(p["policies"]),
        seeds=tuple(p["seeds"]),
        duration=p["duration"],
        fault_at=p["fault_at"],
        measure_from=robustness.MEASURE_FROM,
        cells=[robustness.RobustnessCell(**vars(row)) for row in rows],
    )
    return robustness.render(report, fmt)


def _fleet_render(rows, p: dict, fmt: str) -> str:
    report = fleet.FleetReport(
        scenarios=tuple(p["scenarios"]),
        seeds=tuple(p["seeds"]),
        subscribers=p["subscribers"],
        duration=p["duration"],
        cells=[fleet.FleetCell(**vars(row)) for row in rows],
    )
    return fleet.render(report, fmt)


_FORMATS = ("table", "json", "csv")

#: Every artifact by name, in the order ``repro-rtc experiments`` runs
#: them.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(
        {
            "ratios": scenarios.TABLE1_DROP_RATIOS,
            "seeds": scenarios.TABLE1_SEEDS,
        },
        plan=lambda ratios, seeds: table1.plan_batch(ratios, seeds)[0],
        fold=_table1_fold,
        render=lambda rows, params, fmt: table1.render(rows, fmt),
        formats=_FORMATS,
    ),
    "figure1": _figure(
        figures.plan_figure1,
        lambda results, **p: figures.figure1(results),
        "Figure 1 — baseline timeline during a drop to 20%",
        drop_ratio=0.2, seed=1,
    ),
    "figure2": _figure(
        figures.plan_figure2,
        lambda results, **p: figures.figure2(results),
        "Figure 2 — frame latency, baseline vs adaptive",
        drop_ratio=0.2, seed=1,
    ),
    "figure3": _figure(
        figures.plan_figure3,
        lambda results, **p: figures.figure3(results),
        "Figure 3 — latency CDF over a five-drop session",
        seed=1,
    ),
    "figure4": _figure(
        figures.plan_figure4,
        figures.figure4,
        "Figure 4 — reduction & quality delta vs severity",
        ratios=(0.8, 0.6, 0.45, 0.3, 0.2, 0.12), seeds=_SEEDS,
    ),
    "ablation_a_detector": _variants(
        ablations.detector_ablation, ablations.averaged_row,
        ablations.format_rows, "Ablation A — detector signals",
    ),
    "ablation_b_strategies": _variants(
        ablations.strategy_ablation, ablations.averaged_row,
        ablations.format_rows, "Ablation B — strategies",
    ),
    "ablation_c_rtt": _variants(
        ablations.rtt_sensitivity, ablations.averaged_row,
        ablations.format_rows, "Ablation C1 — RTT sensitivity",
    ),
    "ablation_c_feedback": _variants(
        ablations.feedback_interval_sensitivity, ablations.averaged_row,
        ablations.format_rows, "Ablation C2 — feedback-interval sensitivity",
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
    "extension_e_estimators": _extension(
        extensions.estimator_comparison, extensions.drop_window_row,
        extensions.format_extension_rows,
        "Abl. E — GCC delay estimator (trendline vs Kalman)",
    ),
    "extension_f_recovery": _extension(
        extensions.recovery_mechanism_comparison, extensions.averaged_row,
        extensions.format_extension_rows,
        "Ext. F — loss recovery: PLI vs NACK vs FEC (2% loss, 40 ms RTT)",
        {"seeds": _SEEDS},
    ),
    "extension_g_aqm": _extension(
        extensions.aqm_comparison, extensions.drop_window_row,
        extensions.format_extension_rows,
        "Ext. G — bottleneck discipline: drop-tail vs CoDel",
    ),
    "extension_h_recovery": _extension(
        extensions.fast_recovery_comparison, extensions.recovery_row,
        extensions.format_recovery_rows,
        "Ext. H — post-drop recovery (t = 25–35 s, capacity restored "
        "at t = 20 s)",
    ),
    "extension_i_audio": _extension(
        extensions.audio_impact, extensions.audio_row,
        extensions.format_audio_rows,
        "Ext. I — audio latency during the video drop (to 20%)",
    ),
    "extension_j_fairness": _extension(
        extensions.fairness_comparison, extensions.fairness_row,
        extensions.format_fairness_rows,
        "Ext. J — two flows sharing a 4→1 Mbps bottleneck "
        "(post-drop split, drop-window latency)",
        {"seeds": _SEEDS},
    ),
    "extension_k_simulcast": _extension(
        extensions.simulcast_comparison, extensions.simulcast_row,
        extensions.format_simulcast_rows,
        "Ext. K — production simulcast (SFU layer switch) vs encoder "
        "adaptation (drop to 20%)",
    ),
    "chaos": Artifact(
        {
            "scenarios": robustness.DEFAULT_SCENARIOS,
            "faults": robustness.FAULT_NAMES,
            "policies": [p.value for p in robustness.DEFAULT_POLICIES],
            "seeds": (1, 2),
            "duration": robustness.DURATION,
            "fault_at": robustness.FAULT_AT,
        },
        plan=lambda **p: robustness.plan_batch(**_chaos_args(p)),
        fold=lambda results, **p: [
            cell.to_dict()
            for cell in robustness.report_from_results(
                results, **_chaos_args(p)
            ).cells
        ],
        render=_chaos_render,
        formats=_FORMATS,
    ),
    "fleet": Artifact(
        {
            "scenarios": fleet.DEFAULT_SCENARIOS,
            "seeds": (1,),
            "subscribers": fleet.SUBSCRIBERS,
            "duration": fleet.DURATION,
        },
        plan=lambda scenarios, seeds, subscribers, duration: fleet.plan_batch(
            tuple(scenarios), tuple(seeds), subscribers, duration
        ),
        fold=lambda results, scenarios, seeds, **_p: [
            cell.to_dict()
            for cell in fleet.rows_from_results(
                results, tuple(scenarios), tuple(seeds)
            )
        ],
        render=_fleet_render,
        formats=_FORMATS,
    ),
}


def resolve(name: str, params: dict | None = None) -> dict:
    """The entry's params with ``params`` applied, as canonical JSON.

    A ``None`` value means the entry's default. Plan files store the
    result, so two plans of the same logical batch are byte-identical.

    Raises:
        ConfigError: an unknown name, a param the entry does not take,
            or an empty list (no seed, ratio, scenario ...).
    """
    try:
        entry = ARTIFACTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown artifact {name!r} (available: {', '.join(ARTIFACTS)})"
        ) from None
    given = {k: v for k, v in (params or {}).items() if v is not None}
    foreign = sorted(set(given) - set(entry.params))
    if foreign:
        raise ConfigError(
            f"{name} takes no {', '.join(foreign)} param "
            f"(its params: {', '.join(entry.params)})"
        )
    resolved = json.loads(json.dumps({**entry.params, **given}))
    for key, value in resolved.items():
        if value == []:
            raise ConfigError(f"{name} needs at least one of {key}")
    return resolved


def payload_of(name: str, params: dict, batch: list, results: list) -> dict:
    """The JSON payload of one run of ``batch`` (as :func:`produce`)."""
    return {
        "artifact": name,
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "cells": [config_hash(config) for config in batch],
        "params": params,
        "rows": ARTIFACTS[name].fold(results, **params),
    }


def produce(name: str, **params) -> dict:
    """Run one artifact: its JSON payload (name, schema, cells, params,
    rows).

    ``params`` override the entry's own; the committed artifacts use
    none. This is the one :func:`run_many` call of every experiment.

    Raises:
        ConfigError: bad params (see :func:`resolve`), before anything
            runs.
    """
    params = resolve(name, params)
    batch = ARTIFACTS[name].plan(**params)
    return payload_of(name, params, batch, run_many(batch))


def render(payload: dict, fmt: str = "table") -> str:
    """The artifact's text in ``fmt`` from its payload alone.

    The rows go through JSON and come back as objects with one
    attribute per field, which is all the formatters read, so a
    payload read from ``<name>.json`` renders like a fresh one.

    Raises:
        ConfigError: a format the artifact cannot render.
    """
    name = payload["artifact"]
    entry = ARTIFACTS[name]
    if fmt not in entry.formats:
        raise ConfigError(
            f"artifact {name!r} cannot render {fmt!r} "
            f"(formats: {', '.join(entry.formats)})"
        )
    rows = json.loads(
        json.dumps(payload["rows"]),
        object_hook=lambda fields: SimpleNamespace(**fields),
    )
    return entry.render(rows, payload["params"], fmt)


def write(name: str, out_dir: Path | str) -> tuple[Path, Path]:
    """Produce ``name`` into ``out_dir`` as ``<name>.json`` and the
    ``<name>.txt`` rendered from it."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    result = produce(name)
    json_path = directory / f"{name}.json"
    txt_path = directory / f"{name}.txt"
    json_path.write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    txt_path.write_text(render(result), encoding="utf-8")
    return json_path, txt_path
