"""Report bundle: figures rendered from stage artifacts plus an index page.

The emitter never recomputes results; it only reads what earlier stages
wrote under the output directory, and writes through the report stage's
:class:`layout.StageIO`.  It reads only the artifacts the run's manifest
lists, so a file a stage of an earlier run left in a reused directory is not
drawn.  A missing upstream artifact downgrades the corresponding figure to a
placeholder entry in the index and a warning, and the rest of the bundle is
still produced.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from . import figures, layout
from .layout import HEADERS, read_by_model, read_columns, read_header, read_json

__all__ = ["emit_report"]


def _fig_cate_hist(at, bins: int):
    panels = []
    estimates = read_by_model(at(layout.CATE_ESTIMATES), HEADERS[layout.CATE_ESTIMATES], [2])
    for model, (tau,) in estimates.items():
        lo, hi = float(tau.min()), float(tau.max())
        if hi - lo <= max(abs(lo), abs(hi), 1.0) * 1e-9:
            # effectively constant estimates (e.g. a purely linear s-learner)
            mid = (lo + hi) / 2.0
            lo, hi = mid - 0.5, mid + 0.5
        counts, edges = np.histogram(tau, bins=bins, range=(lo, hi))
        panels.append(
            {
                "title": model,
                "edges": [float(e) for e in edges],
                "series": [{"label": model, "counts": counts.astype(int).tolist()}],
            }
        )
    return figures.svg_histogram(
        panels, title="Estimated effect distributions", x_label="estimated effect"
    )


def _fig_overlap_hist(at, bins: int):
    info = read_json(at(layout.OVERLAP))["report"]
    panels = []
    for arm in ("0", "1"):
        hist = info["histograms"][arm]
        panels.append(
            {
                "title": f"observed arm {arm}",
                "edges": info["bin_edges"],
                "series": [
                    {"label": "all", "counts": hist["all"]},
                    {"label": "retained", "counts": hist["retained"]},
                ],
            }
        )
    return figures.svg_histogram(
        panels, title="Treatment score overlap", x_label="estimated treatment score"
    )


def _fig_value_scatter(at, bins: int):
    header = HEADERS[layout.STUDY_SCATTER]
    cols = [header.index(name) for name in ("v_true", "v_dr", "v_ipw")]
    (truth, dr, ipw), _ = read_columns(at(layout.STUDY_SCATTER), header, cols)
    series = [{"label": "DR", "x": truth, "y": dr}, {"label": "IPW", "x": truth, "y": ipw}]
    return figures.svg_scatter(
        series,
        title="Estimated against true policy value",
        x_label="true value",
        y_label="estimated value",
    )


def _fig_value_box(at, bins: int):
    for est in ("DR", "IPW"):
        try:
            full = at(layout.distributions(est))
        except FileNotFoundError:
            continue
        names = read_header(full)
        cols, _ = read_columns(full, names, range(len(names)))
        # NaN-only columns cannot be drawn
        items = [{"label": k, "values": v} for k, v in zip(names, cols) if not np.isnan(v).all()]
        return figures.svg_box(
            items, title=f"Bootstrap policy values ({est})", y_label="policy value"
        )
    raise FileNotFoundError(layout.distributions("DR"))


def _fig_rank_curve(at, bins: int):
    curves = read_by_model(at(layout.RANK_CURVE), HEADERS[layout.RANK_CURVE], [2, 3])
    series = [
        {"label": model, "fractions": fractions, "values": values}
        for model, (fractions, values) in curves.items()
    ]
    return figures.svg_rank_curve(series, title="Value by fraction treated")


def _fig_outcome_tree(at, bins: int):
    trees = read_json(at(layout.OUTCOME_TREES))
    name, tree = next(iter(trees.items()))
    return figures.svg_tree(tree, title=f"Observed outcomes under policy {name}")


# figure name -> (relative output path, renderer)
_FIGURES = (
    ("effect histograms", layout.FIG_CATE_HIST, _fig_cate_hist),
    ("overlap histograms", layout.FIG_OVERLAP_HIST, _fig_overlap_hist),
    ("value scatter", layout.FIG_VALUE_SCATTER, _fig_value_scatter),
    ("value box plot", layout.FIG_VALUE_BOX, _fig_value_box),
    ("rank curve", layout.FIG_RANK_CURVE, _fig_rank_curve),
    ("outcome tree", layout.FIG_OUTCOME_TREE, _fig_outcome_tree),
)

def emit_report(
    out_dir: str, manifest: dict, bins: int, io: layout.StageIO
) -> tuple[list[str], list[dict]]:
    """Render figures from the artifacts under ``out_dir`` that ``manifest``
    lists, and the index, writing through ``io``; returns its (artifact paths,
    warnings)."""
    produced: list[tuple[str, str]] = []
    missing: list[tuple[str, str]] = []
    listed = {a["path"] for a in manifest.get("artifacts", [])}

    def at(rel):
        """Where to read ``rel``; one the manifest does not list, or that is not on
        disk, raises FileNotFoundError naming ``rel``."""
        full = os.path.join(out_dir, rel)
        if rel not in listed or not os.path.exists(full):
            raise FileNotFoundError(rel)
        return full

    for label, rel, render in _FIGURES:
        try:
            svg = render(at, bins)
        except FileNotFoundError as exc:
            missing.append((label, str(exc)))
            io.warn("missing-artifact", f"{label} skipped: missing {exc}")
            continue
        with open(io.out(rel), "w") as fh:
            fh.write(svg)
        produced.append((label, rel))

    index = _render_index(manifest, produced, missing)
    with open(io.out(layout.REPORT_INDEX), "w") as fh:
        fh.write(index)
    return io.written, io.warnings


def _render_index(manifest: dict, produced, missing) -> str:
    lines = ["# Run report", ""]
    lines.append(f"Config hash: `{manifest.get('config_hash', 'unknown')}`")
    lines.append("")
    lines.append("## Figures")
    lines.append("")
    for label, rel in produced:
        lines.append(f"- [{label}]({os.path.relpath(rel, 'report')})")
    for label, need in missing:
        lines.append(f"- {label}: *not produced - missing upstream artifact `{need}`*")
    lines.append("")
    lines.append("## Artifacts by stage")
    lines.append("")
    by_stage: OrderedDict[str, list[str]] = OrderedDict()
    for entry in manifest.get("artifacts", []):
        by_stage.setdefault(entry["stage"], []).append(entry["path"])
    descriptions = dict(layout.STAGES)
    for stage, paths in by_stage.items():
        lines.append(f"### {stage}")
        lines.append("")
        about = descriptions.get(stage)
        if about:
            lines.append(f"{about[0].upper()}{about[1:]}.")
            lines.append("")
        for p in paths:
            lines.append(f"- `{p}`")
        lines.append("")
    warn = manifest.get("warnings", [])
    lines.append("## Warnings")
    lines.append("")
    if warn:
        for w in warn:
            lines.append(f"- **{w.get('stage', '?')}** ({w.get('kind', '?')}): {w.get('message', '')}")
    else:
        lines.append("None recorded.")
    lines.append("")
    return "\n".join(lines)
