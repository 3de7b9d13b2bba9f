"""The evaluation's experiments: one registry plans, runs and renders each.

:data:`ARTIFACTS` maps each experiment name to its default params, a
``plan(**params)`` that returns the experiment's whole batch of
configs, a ``fold(results, **params)`` that turns the batch's results
(in batch order, quarantined cells as
:class:`~repro.pipeline.supervisor.FailedSession`) into JSON rows, and
a ``table(rows, params)`` that writes those rows as aligned text. Every
row carries ``failed``: ``None``, or the ``FAILED(<reason>)`` marker of
a row with a quarantined session, which keeps its label fields and
holds ``None`` for every metric
(:func:`~repro.experiments.scenarios.failed_row`).

:func:`produce` is the one place a batch runs: it resolves the params,
plans the batch, runs it through
:func:`~repro.pipeline.parallel.run_many` (so under the configured
cache, workers and supervision) and returns the payload that
``<name>.json`` holds: the rows at full precision, the params, each
cell's config hash in batch order, and
:data:`~repro.pipeline.parallel.CACHE_SCHEMA_VERSION`. :func:`render`
writes a payload, fresh or read back from ``<name>.json``, in any of
:data:`FORMATS`: ``json`` is the payload itself, ``csv`` one line per
row, and ``table`` the artifact's text. ``repro-rtc experiments``
prints any entry in any format, with flags for its params, or writes
its json and table; and ``repro-rtc shard plan`` splits any entry's
batch across hosts (:mod:`repro.pipeline.shards`). Other params are a
library call: ``render(produce("figure4", seeds=[1, 2, 3, 4, 5]))``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
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
    """One experiment: ``table(fold(results, **p), p)`` over the results
    of ``plan(**p)``; ``table`` returns text without a final newline."""

    params: dict
    plan: Callable[..., list]
    fold: Callable[..., list]
    table: Callable[[list, dict], str]


# ----------------------------------------------------------------------
# The table writer
# ----------------------------------------------------------------------
#: One text-table column: its header, the ``str.format`` template of its
#: cells, and the row field it shows or a function of the row.
Column = tuple[str, str, "str | Callable[[dict], object]"]


def text_table(
    title: str, columns: tuple[Column, ...], rows: list[dict], rule=True
) -> str:
    """``title``, a header line, a rule under it when ``rule`` is set,
    then one line per row; cells are joined by one space.

    Each header is as wide as its column's template makes a cell, and
    aligned the same way. A failed row shows its labels (its leading
    columns that name a set field), then its ``FAILED(...)`` marker.
    """
    header = " ".join(
        _header(name, template) for name, template, _value in columns
    )
    lines = [title, header]
    if rule:
        lines.append("-" * len(header))
    lines.extend(" ".join(_cells(columns, row)) for row in rows)
    return "\n".join(lines)


def _header(name: str, template: str) -> str:
    width = len(template.format(0))
    if template.startswith("{:<"):
        return name.ljust(width)
    return name.rjust(width)


def _cells(columns: tuple[Column, ...], row: dict):
    for _name, template, value in columns:
        if row["failed"] is not None and (
            callable(value) or row[value] is None
        ):
            yield row["failed"]
            return
        yield template.format(value(row) if callable(value) else row[value])


def _ms(field: str):
    """A latency field in seconds, shown in milliseconds."""
    return lambda row: row[field] * 1e3


def _kbps(field: str):
    """A rate field in bit/s, shown in kbit/s."""
    return lambda row: row[field] / 1e3


def _titled(title: str, columns: tuple[Column, ...], rule=True):
    """A ``table`` that writes one :func:`text_table`."""
    return lambda rows, params: text_table(title, columns, rows, rule)


_TABLE1_COLUMNS = (
    ("scenario", "{:<14}", "label"),
    ("base lat", "{:>7.1f}ms", _ms("baseline_latency")),
    ("adpt lat", "{:>7.1f}ms", _ms("adaptive_latency")),
    ("reduction", "{:>9.2f}%", "latency_reduction_pct"),
    ("base SSIM", "{:>10.4f}", "baseline_ssim"),
    ("adpt SSIM", "{:>10.4f}", "adaptive_ssim"),
    ("SSIM chg", "{:>+8.2f}%", "ssim_change_pct"),
    (
        "PLI b/a",
        "{:>8}",
        lambda r: f"{r['baseline_pli']:>4.1f}/{r['adaptive_pli']:<3.1f}",
    ),
)

_ABLATION_COLUMNS = (
    ("variant", "{:<20}", "variant"),
    ("mean lat", "{:>8.1f}ms", _ms("mean_latency")),
    ("p95 lat", "{:>8.1f}ms", _ms("p95_latency")),
    ("SSIM", "{:>8.4f}", "mean_ssim"),
)

_PAIRED_COLUMNS = (
    ("point", "{:<15}", "point"),
    ("base lat", "{:>8.1f}ms", lambda r: r["baseline"]["mean_latency"] * 1e3),
    ("adpt lat", "{:>8.1f}ms", lambda r: r["adaptive"]["mean_latency"] * 1e3),
    (
        "reduction",
        "{:>9.1f}%",
        lambda r: (
            1 - r["adaptive"]["mean_latency"] / r["baseline"]["mean_latency"]
        ) * 100,
    ),
    ("base SSIM", "{:>10.4f}", lambda r: r["baseline"]["mean_ssim"]),
    ("adpt SSIM", "{:>10.4f}", lambda r: r["adaptive"]["mean_ssim"]),
)

_COMPARISON_COLUMNS = (
    ("policy", "{:<13}", "policy"),
    ("mean lat", "{:>8.1f}ms", _ms("mean_latency")),
    ("p95 lat", "{:>8.1f}ms", _ms("p95_latency")),
    ("peak lat", "{:>8.1f}ms", _ms("peak_latency")),
    ("SSIM", "{:>8.4f}", "mean_ssim"),
    ("freeze", "{:>7.3f}", "freeze_fraction"),
    ("PLI", "{:>5.1f}", "pli_count"),
)

_EXTENSION_COLUMNS = (
    ("variant", "{:<22}", "variant"),
    ("mean lat", "{:>8.1f}ms", _ms("mean_latency")),
    ("p95 lat", "{:>8.1f}ms", _ms("p95_latency")),
    ("SSIM", "{:>8.4f}", "mean_ssim"),
    ("freeze", "{:>7.3f}", "freeze_fraction"),
    ("PLI", "{:>6.1f}", "pli_count"),
)

_RECOVERY_COLUMNS = (
    ("variant", "{:<12}", "variant"),
    ("bitrate", "{:>7.0f}kbps", _kbps("post_recovery_bitrate")),
    ("latency", "{:>7.1f}ms", _ms("post_recovery_latency")),
    ("SSIM", "{:>8.4f}", "post_recovery_ssim"),
)

_AUDIO_COLUMNS = (
    ("policy", "{:<10}", "policy"),
    ("steady", "{:>7.1f}ms", _ms("steady_audio_latency")),
    ("in drop", "{:>7.1f}ms", _ms("drop_audio_latency")),
    ("loss", "{:>7.3f}", "audio_loss"),
)

_FAIRNESS_COLUMNS = (
    ("pairing", "{:<20}", "pairing"),
    ("rate A", "{:>6.0f}kbps", _kbps("rate_a")),
    ("rate B", "{:>6.0f}kbps", _kbps("rate_b")),
    ("Jain", "{:>6.3f}", "fairness"),
    ("lat A", "{:>7.1f}ms", _ms("latency_a")),
    ("lat B", "{:>7.1f}ms", _ms("latency_b")),
)

_SIMULCAST_COLUMNS = (
    ("variant", "{:<12}", "variant"),
    ("mean lat", "{:>8.1f}ms", _ms("mean_latency")),
    ("p95 lat", "{:>8.1f}ms", _ms("p95_latency")),
    ("SSIM drop", "{:>10.4f}", "drop_ssim"),
    ("SSIM all", "{:>9.4f}", "mean_ssim"),
)

_CHAOS_COLUMNS = (
    ("fault", "{:<22}", "fault"),
    ("policy", "{:<10}", "policy"),
    ("Δp95", "{:>+7.1f}ms", "delta_p95_ms"),
    ("ΔSSIM", "{:>+8.4f}", "delta_ssim"),
    ("Δfreeze", "{:>+8.3f}", "delta_freeze"),
    (
        "recovery",
        "{:>9}",
        lambda r: "never" if r["recovery_s"] is None
        else f"{r['recovery_s']:.2f}s",
    ),
    ("unrec", "{:>6d}", "unrecovered"),
)

_FLEET_COLUMNS = (
    ("scenario", "{:<22}", "scenario"),
    ("seed", "{:>4}", "seed"),
    ("p50", "{:>6.1f}ms", "p50_ms"),
    ("p95", "{:>7.1f}ms", "p95_ms"),
    ("p99", "{:>7.1f}ms", "p99_ms"),
    ("freeze", "{:>7.3f}", "freeze_ratio"),
    ("ssim", "{:>7.4f}", "mean_ssim"),
    ("switch", "{:>6d}", "layer_switches"),
    ("a.p95", "{:>7.1f}ms", "region_a_p95_ms"),
    ("b.p95", "{:>7.1f}ms", "region_b_p95_ms"),
)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_SEEDS = (1, 2, 3)

# The params of most artifacts: the drop to 20%, seeds 1–3.
_DROP = {"drop_ratio": 0.2, "seeds": _SEEDS}


def _variants(
    variants, metrics: dict, table, key="variant", params=_DROP
) -> Artifact:
    """An experiment of variants (labelled config groups), one
    :func:`~repro.experiments.scenarios.seed_mean` row of ``metrics``
    each, labelled ``{key: label}``."""
    return Artifact(
        params,
        plan=lambda **p: batch_of(variants(**p)),
        fold=lambda results, **p: fold_variants(
            results, variants(**p), metrics, key
        ),
        table=table,
    )


def _paired(points, title: str) -> Artifact:
    """An ablation of points, each a baseline and an adaptive variant:
    a row nests their two ablation rows, and fails with either."""

    def fold(results, **p) -> list[dict]:
        pairs = points(**p)
        rows = iter(
            fold_variants(
                results,
                [v for _point, variants in pairs for v in variants],
                ablations.METRICS,
            )
        )
        return [
            {"point": point, "baseline": next(rows), "adaptive": next(rows)}
            for point, _variants in pairs
        ]

    return Artifact(
        _DROP,
        plan=lambda **p: [
            c for _point, variants in points(**p) for c in batch_of(variants)
        ],
        fold=fold,
        table=lambda rows, params: text_table(
            title,
            _PAIRED_COLUMNS,
            [
                {
                    **row,
                    "failed": row["baseline"]["failed"]
                    or row["adaptive"]["failed"],
                }
                for row in rows
            ],
        ),
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
        table=lambda rows, params: figures.format_figure(rows, title),
    )


def _all_policies(drop_ratio: float) -> Artifact:
    return _variants(
        comparison.all_policies,
        comparison.METRICS,
        _titled(
            f"All policies — drop to {drop_ratio:.0%} of capacity",
            _COMPARISON_COLUMNS,
        ),
        key="policy",
        params={"drop_ratio": drop_ratio, "seeds": _SEEDS},
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


#: Every artifact by name, in the order ``repro-rtc experiments`` runs
#: them.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(
        {
            "ratios": scenarios.TABLE1_DROP_RATIOS,
            "seeds": scenarios.TABLE1_SEEDS,
        },
        plan=lambda ratios, seeds: table1.plan_batch(ratios, seeds)[0],
        fold=lambda results, ratios, seeds: table1.rows(
            results, table1.plan_batch(ratios, seeds)[1]
        ),
        table=_titled(
            "Table 1 — latency reduction and quality change "
            "(adaptive vs baseline)",
            _TABLE1_COLUMNS,
        ),
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
        ablations.detector_ablation, ablations.METRICS,
        _titled("Ablation A — detector signals", _ABLATION_COLUMNS),
    ),
    "ablation_b_strategies": _variants(
        ablations.strategy_ablation, ablations.METRICS,
        _titled("Ablation B — strategies", _ABLATION_COLUMNS),
    ),
    "ablation_c_rtt": _variants(
        ablations.rtt_sensitivity, ablations.METRICS,
        _titled("Ablation C1 — RTT sensitivity", _ABLATION_COLUMNS),
    ),
    "ablation_c_feedback": _variants(
        ablations.feedback_interval_sensitivity, ablations.METRICS,
        _titled(
            "Ablation C2 — feedback-interval sensitivity", _ABLATION_COLUMNS
        ),
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
    "extension_e_estimators": _variants(
        extensions.estimator_comparison, extensions.DROP_WINDOW_METRICS,
        _titled(
            "Abl. E — GCC delay estimator (trendline vs Kalman)",
            _EXTENSION_COLUMNS,
        ),
    ),
    "extension_f_recovery": _variants(
        extensions.recovery_mechanism_comparison,
        extensions.SESSION_METRICS,
        _titled(
            "Ext. F — loss recovery: PLI vs NACK vs FEC "
            "(2% loss, 40 ms RTT)",
            _EXTENSION_COLUMNS,
        ),
        params={"seeds": _SEEDS},
    ),
    "extension_g_aqm": _variants(
        extensions.aqm_comparison, extensions.DROP_WINDOW_METRICS,
        _titled(
            "Ext. G — bottleneck discipline: drop-tail vs CoDel",
            _EXTENSION_COLUMNS,
        ),
    ),
    "extension_h_recovery": _variants(
        extensions.fast_recovery_comparison, extensions.RECOVERY_METRICS,
        _titled(
            "Ext. H — post-drop recovery (t = 25–35 s, capacity restored "
            "at t = 20 s)",
            _RECOVERY_COLUMNS,
            rule=False,
        ),
    ),
    "extension_i_audio": _variants(
        extensions.audio_impact, extensions.AUDIO_METRICS,
        _titled(
            "Ext. I — audio latency during the video drop (to 20%)",
            _AUDIO_COLUMNS,
            rule=False,
        ),
        key="policy",
    ),
    "extension_j_fairness": _variants(
        extensions.fairness_comparison, extensions.FAIRNESS_METRICS,
        _titled(
            "Ext. J — two flows sharing a 4→1 Mbps bottleneck "
            "(post-drop split, drop-window latency)",
            _FAIRNESS_COLUMNS,
        ),
        key="pairing",
        params={"seeds": _SEEDS},
    ),
    "extension_k_simulcast": _variants(
        extensions.simulcast_comparison, extensions.SIMULCAST_METRICS,
        _titled(
            "Ext. K — production simulcast (SFU layer switch) vs encoder "
            "adaptation (drop to 20%)",
            _SIMULCAST_COLUMNS,
            rule=False,
        ),
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
        fold=lambda results, **p: robustness.rows_from_results(
            results, **_chaos_args(p)
        ),
        table=lambda rows, p: "\n\n".join(
            text_table(
                f"scenario: {scenario}",
                _CHAOS_COLUMNS,
                [row for row in rows if row["scenario"] == scenario],
            )
            for scenario in p["scenarios"]
        ),
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
        fold=lambda results, scenarios, seeds, **_p: fleet.rows_from_results(
            results, tuple(scenarios), tuple(seeds)
        ),
        table=lambda rows, p: text_table(
            f"fleet: {p['subscribers']} subscribers x "
            f"{p['duration']:g}s per cell",
            _FLEET_COLUMNS,
            rows,
        ),
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


#: The formats :func:`render` writes.
FORMATS = ("table", "json", "csv")


def render(payload: dict, fmt: str = "table") -> str:
    """The artifact's text in ``fmt`` from its payload alone.

    ``json`` is the payload, as ``<name>.json`` holds it. ``table`` and
    ``csv`` read only its rows and params, so a payload read back from
    ``<name>.json`` renders the same table as a fresh one. ``csv``
    writes a header of the row keys, in the order the payload holds
    them (a fresh fold's, or sorted when read back), then one line per
    row, ``None`` as an empty cell and a float as its ``repr``.

    Raises:
        ConfigError: an unknown format, or ``csv`` for an artifact
            whose rows nest lists or objects.
    """
    name = payload["artifact"]
    rows = payload["rows"]
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "table":
        return ARTIFACTS[name].table(rows, payload["params"]) + "\n"
    if fmt != "csv":
        raise ConfigError(
            f"unknown format {fmt!r} (formats: {', '.join(FORMATS)})"
        )
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        values = [row[key] for key in header]
        if any(isinstance(value, (dict, list)) for value in values):
            raise ConfigError(
                f"artifact {name!r} cannot render 'csv': its rows nest "
                "lists or objects (formats: table, json)"
            )
        lines.append(
            ",".join(
                "" if value is None
                else repr(value) if isinstance(value, float)
                else str(value)
                for value in values
            )
        )
    return "\n".join(lines) + "\n"


def write(payload: dict, out_dir: Path | str) -> tuple[Path, Path]:
    """Write a payload into ``out_dir`` as ``<name>.json`` and the
    ``<name>.txt`` rendered from it."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    name = payload["artifact"]
    json_path = directory / f"{name}.json"
    txt_path = directory / f"{name}.txt"
    json_path.write_text(render(payload, "json"), encoding="utf-8")
    txt_path.write_text(render(payload), encoding="utf-8")
    return json_path, txt_path
