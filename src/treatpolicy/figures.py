"""Minimal self-contained SVG charts, built as plain strings.

Every function returns a complete ``<svg>`` document with no external
assets, scripts, or timestamps, so identical inputs give identical bytes
and the files diff cleanly under version control.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "box_stats",
    "nice_ticks",
    "svg_histogram",
    "svg_scatter",
    "svg_box",
    "svg_rank_curve",
    "svg_tree",
]

PALETTE = (
    "#4c72b0",
    "#dd8452",
    "#55a868",
    "#c44e52",
    "#8172b3",
    "#937860",
    "#da8bc3",
    "#8c8c8c",
)


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped, as ``xml.sax.saxutils.escape``
    escapes them; that module imports ``urllib.request`` and ``ssl``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    # pixel coordinates; two decimals keeps files small and stable
    return f"{float(x):.2f}"


def _num(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "na"
    return f"{float(x):.4g}"


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/2.5/5 x 10^k step, about
    five of them."""
    lo, hi = float(lo), float(hi)
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0]
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * mag * (1.0 + 1e-12):
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks or [lo]


def _pad(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo - 1.0, hi + 1.0
    span = hi - lo
    return lo - 0.05 * span, hi + 0.05 * span


class _Frame:
    """One plotting area with data-to-pixel transforms and axis rendering."""

    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0 = x0, y0
        self.w, self.h = width, height
        self.xlim, self.ylim = xlim, ylim

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        return self.x0 + (float(x) - lo) / (hi - lo) * self.w

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return self.y0 + self.h - (float(y) - lo) / (hi - lo) * self.h

    def axes(self, x_label="", y_label="", x_ticks=None) -> list[str]:
        out = [
            f'<rect x="{_fmt(self.x0)}" y="{_fmt(self.y0)}" width="{_fmt(self.w)}" '
            f'height="{_fmt(self.h)}" fill="none" stroke="#333333" stroke-width="1"/>'
        ]
        if x_ticks is None:
            x_ticks = nice_ticks(*self.xlim)
        base = self.y0 + self.h
        for t in x_ticks:
            if not self.xlim[0] <= t <= self.xlim[1]:
                continue
            x = self.px(t)
            out.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(base)}" x2="{_fmt(x)}" '
                f'y2="{_fmt(base + 4)}" stroke="#333333" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(x)}" y="{_fmt(base + 16)}" font-size="10" '
                f'text-anchor="middle" fill="#333333">{_num(t)}</text>'
            )
        for t in nice_ticks(*self.ylim):
            if not self.ylim[0] <= t <= self.ylim[1]:
                continue
            y = self.py(t)
            out.append(
                f'<line x1="{_fmt(self.x0 - 4)}" y1="{_fmt(y)}" x2="{_fmt(self.x0)}" '
                f'y2="{_fmt(y)}" stroke="#333333" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(self.x0 - 7)}" y="{_fmt(y + 3)}" font-size="10" '
                f'text-anchor="end" fill="#333333">{_num(t)}</text>'
            )
        if x_label:
            out.append(
                f'<text x="{_fmt(self.x0 + self.w / 2)}" y="{_fmt(base + 32)}" '
                f'font-size="11" text-anchor="middle" fill="#333333">{escape(x_label)}</text>'
            )
        if y_label:
            cx, cy = self.x0 - 42, self.y0 + self.h / 2
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="11" text-anchor="middle" '
                f'fill="#333333" transform="rotate(-90 {_fmt(cx)} {_fmt(cy)})">'
                f"{escape(y_label)}</text>"
            )
        return out


def _doc(width: int, height: int, body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        head.append(
            f'<text x="{width / 2:.0f}" y="20" font-size="14" text-anchor="middle" '
            f'fill="#111111">{escape(title)}</text>'
        )
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _legend(frame: _Frame, labels: list[str]) -> list[str]:
    out = []
    for i, label in enumerate(labels):
        x, y = frame.x0 + frame.w - 150, frame.y0 + 14 + 16 * i
        color = PALETTE[i % len(PALETTE)]
        out.append(f'<rect x="{_fmt(x)}" y="{_fmt(y - 9)}" width="10" height="10" fill="{color}"/>')
        out.append(
            f'<text x="{_fmt(x + 15)}" y="{_fmt(y)}" font-size="10" fill="#333333">'
            f"{escape(label)}</text>"
        )
    return out


def svg_histogram(panels: list[dict], *, title: str = "", x_label: str = "") -> str:
    """Stacked histogram panels; each panel overlays its series translucently.

    panel: {"title": str, "edges": [b+1 floats], "series": [{"label", "counts"}]}
    """
    if not panels:
        raise ValueError("need at least one histogram panel")
    width, panel_h, gap, top = 640, 170, 54, 34
    height = top + len(panels) * (panel_h + gap)
    body = []
    for p_i, panel in enumerate(panels):
        edges = [float(e) for e in panel["edges"]]
        series = panel["series"]
        if any(len(s["counts"]) != len(edges) - 1 for s in series):
            raise ValueError("counts length must be len(edges) - 1")
        y_top = top + p_i * (panel_h + gap)
        max_count = max((max(s["counts"]) for s in series if s["counts"]), default=1)
        frame = _Frame(62, y_top + 14, width - 82, panel_h - 14,
                       (edges[0], edges[-1]), (0.0, max(max_count, 1) * 1.05))
        if panel.get("title"):
            body.append(
                f'<text x="62" y="{_fmt(y_top + 8)}" font-size="11" fill="#111111">'
                f'{escape(panel["title"])}</text>'
            )
        for s_i, s in enumerate(series):
            color = PALETTE[s_i % len(PALETTE)]
            for b, count in enumerate(s["counts"]):
                if count <= 0:
                    continue
                x_l, x_r = frame.px(edges[b]), frame.px(edges[b + 1])
                y = frame.py(count)
                body.append(
                    f'<rect x="{_fmt(x_l)}" y="{_fmt(y)}" width="{_fmt(x_r - x_l)}" '
                    f'height="{_fmt(frame.y0 + frame.h - y)}" fill="{color}" '
                    f'fill-opacity="0.55" stroke="{color}" stroke-width="0.5"/>'
                )
        body.extend(frame.axes(x_label=x_label if p_i == len(panels) - 1 else "", y_label="count"))
        if len(series) > 1:
            body.extend(_legend(frame, [s["label"] for s in series]))
    return _doc(width, height, body, title)


def svg_scatter(series: list[dict], *, title: str = "", x_label: str = "",
                y_label: str = "") -> str:
    """Point clouds on one shared range for both axes, under a dashed y = x line;
    series: [{"label", "x": [...], "y": [...]}]."""
    xs = [float(v) for s in series for v in s["x"]]
    ys = [float(v) for s in series for v in s["y"]]
    if not xs:
        raise ValueError("scatter needs at least one point")
    width, height = 640, 420
    lim = _pad(min(min(xs), min(ys)), max(max(xs), max(ys)))
    frame = _Frame(66, 36, width - 96, height - 96, lim, lim)
    a, b = lim
    body = [
        f'<line x1="{_fmt(frame.px(a))}" y1="{_fmt(frame.py(a))}" '
        f'x2="{_fmt(frame.px(b))}" y2="{_fmt(frame.py(b))}" '
        f'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>'
    ]
    for s_i, s in enumerate(series):
        color = PALETTE[s_i % len(PALETTE)]
        for x, y in zip(s["x"], s["y"]):
            body.append(
                f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="3" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
    body.extend(frame.axes(x_label=x_label, y_label=y_label))
    if len(series) > 1:
        body.extend(_legend(frame, [s["label"] for s in series]))
    return _doc(width, height, body, title)


def box_stats(values) -> dict:
    """Five-number box summary with whiskers at the most extreme points
    inside 1.5 IQR of the box; everything beyond is an outlier."""
    v = np.asarray(values, dtype=float)
    v = np.sort(v[~np.isnan(v)])
    if v.size == 0:
        raise ValueError("box_stats needs at least one finite value")
    q1 = float(np.quantile(v, 0.25))
    q3 = float(np.quantile(v, 0.75))
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    return {
        "q1": q1,
        "median": float(np.quantile(v, 0.5)),
        "q3": q3,
        "whisker_low": float(inside[0]),
        "whisker_high": float(inside[-1]),
        "outliers": [float(x) for x in v[(v < lo_fence) | (v > hi_fence)]],
    }


def svg_box(items: list[dict], *, title: str = "", y_label: str = "") -> str:
    """One Tukey box per item; items: [{"label", "values": [...]}]."""
    if not items:
        raise ValueError("need at least one box")
    stats = [box_stats(it["values"]) for it in items]
    lo = min(min([s["whisker_low"]] + s["outliers"]) for s in stats)
    hi = max(max([s["whisker_high"]] + s["outliers"]) for s in stats)
    width = max(640, 70 + 80 * len(items))
    height = 420
    frame = _Frame(66, 36, width - 96, height - 116, (0.0, float(len(items))), _pad(lo, hi))
    body = frame.axes(x_ticks=[], y_label=y_label)
    half = 0.28
    for i, (item, s) in enumerate(zip(items, stats)):
        color = PALETTE[i % len(PALETTE)]
        cx = i + 0.5
        x_l, x_r = frame.px(cx - half), frame.px(cx + half)
        x_c = frame.px(cx)
        y_q1, y_q3 = frame.py(s["q1"]), frame.py(s["q3"])
        body.append(
            f'<line x1="{_fmt(x_c)}" y1="{_fmt(frame.py(s["whisker_low"]))}" '
            f'x2="{_fmt(x_c)}" y2="{_fmt(y_q1)}" stroke="#333333" stroke-width="1"/>'
        )
        body.append(
            f'<line x1="{_fmt(x_c)}" y1="{_fmt(y_q3)}" x2="{_fmt(x_c)}" '
            f'y2="{_fmt(frame.py(s["whisker_high"]))}" stroke="#333333" stroke-width="1"/>'
        )
        for y_val in (s["whisker_low"], s["whisker_high"]):
            y = frame.py(y_val)
            body.append(
                f'<line x1="{_fmt(frame.px(cx - half / 2))}" y1="{_fmt(y)}" '
                f'x2="{_fmt(frame.px(cx + half / 2))}" y2="{_fmt(y)}" '
                f'stroke="#333333" stroke-width="1"/>'
            )
        body.append(
            f'<rect x="{_fmt(x_l)}" y="{_fmt(y_q3)}" width="{_fmt(x_r - x_l)}" '
            f'height="{_fmt(y_q1 - y_q3)}" fill="{color}" fill-opacity="0.45" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        y_med = frame.py(s["median"])
        body.append(
            f'<line x1="{_fmt(x_l)}" y1="{_fmt(y_med)}" x2="{_fmt(x_r)}" '
            f'y2="{_fmt(y_med)}" stroke="#111111" stroke-width="1.5"/>'
        )
        for out_v in s["outliers"]:
            body.append(
                f'<circle cx="{_fmt(x_c)}" cy="{_fmt(frame.py(out_v))}" r="2.5" '
                f'fill="none" stroke="#333333" stroke-width="1"/>'
            )
        body.append(
            f'<text x="{_fmt(x_c)}" y="{_fmt(frame.y0 + frame.h + 16)}" font-size="10" '
            f'text-anchor="middle" fill="#333333" transform="rotate(-20 {_fmt(x_c)} '
            f'{_fmt(frame.y0 + frame.h + 16)})">{escape(item["label"])}</text>'
        )
    return _doc(width, height, body, title)


def svg_rank_curve(series: list[dict], *, title: str = "") -> str:
    """Policy value against the fraction of units treated.

    series: [{"label", "fractions": [...], "values": [...]}], fractions in
    [0, 1].  The left end (nobody treated) and right end (everybody treated)
    are annotated as the two treat-all policies.
    """
    ys = [float(v) for s in series for v in s["values"]]
    if not ys:
        raise ValueError("rank curve needs at least one point")
    width, height = 640, 420
    frame = _Frame(66, 36, width - 96, height - 116, (0.0, 1.0), _pad(min(ys), max(ys)))
    body = []
    for s_i, s in enumerate(series):
        color = PALETTE[s_i % len(PALETTE)]
        pairs = sorted(zip([float(f) for f in s["fractions"]], [float(v) for v in s["values"]]))
        pts = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in pairs)
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in pairs:
            body.append(
                f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="2.5" '
                f'fill="{color}"/>'
            )
    body.extend(frame.axes(x_label="fraction treated", y_label="value"))
    base = frame.y0 + frame.h
    body.append(
        f'<text x="{_fmt(frame.px(0.0))}" y="{_fmt(base + 30)}" font-size="10" '
        f'text-anchor="start" fill="#555555">Treat-all-0</text>'
    )
    body.append(
        f'<text x="{_fmt(frame.px(1.0))}" y="{_fmt(base + 30)}" font-size="10" '
        f'text-anchor="end" fill="#555555">Treat-all-1</text>'
    )
    if len(series) > 1:
        body.extend(_legend(frame, [s["label"] for s in series]))
    return _doc(width, height, body, title)


def _tree_box(x, y, w, h, label, node, color) -> list[str]:
    lines = [
        f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
        f'rx="4" fill="{color}" fill-opacity="0.18" stroke="#333333" stroke-width="1"/>',
        f'<text x="{_fmt(x + w / 2)}" y="{_fmt(y + 15)}" font-size="11" '
        f'text-anchor="middle" fill="#111111">{escape(label)}</text>',
        f'<text x="{_fmt(x + w / 2)}" y="{_fmt(y + 29)}" font-size="10" '
        f'text-anchor="middle" fill="#333333">n={node["n"]}</text>',
        f'<text x="{_fmt(x + w / 2)}" y="{_fmt(y + 42)}" font-size="10" '
        f'text-anchor="middle" fill="#333333">mean={_num(node["mean"])} '
        f"sem={_num(node['sem'])}</text>",
    ]
    return lines


def svg_tree(tree: dict, *, title: str = "") -> str:
    """Three-level outcome diagram: cohort, observed arm, policy agreement."""
    width, height = 760, 360
    bw, bh = 150, 50
    body = []
    root_x = (width - bw) / 2
    body.extend(_tree_box(root_x, 40, bw, bh, "all rows", tree, "#8c8c8c"))
    arm_y, leaf_y = 150, 260
    arm_names = ("arm_0", "arm_1")
    arm_labels = ("observed arm 0", "observed arm 1")
    centers = (width * 0.25, width * 0.75)
    for a_i, (arm_key, arm_label, cx) in enumerate(zip(arm_names, arm_labels, centers)):
        arm = tree["children"][arm_key]
        ax = cx - bw / 2
        body.append(
            f'<line x1="{_fmt(root_x + bw / 2)}" y1="{_fmt(40 + bh)}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(arm_y)}" stroke="#777777" stroke-width="1"/>'
        )
        body.extend(_tree_box(ax, arm_y, bw, bh, arm_label, arm, PALETTE[a_i]))
        leaves = ("agree", "disagree", "defer")
        gap, lw = 8, 110
        start = cx - (lw * 3 + gap * 2) / 2
        for l_i, leaf_key in enumerate(leaves):
            leaf = arm["children"][leaf_key]
            lx = start + l_i * (lw + gap)
            body.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(arm_y + bh)}" x2="{_fmt(lx + lw / 2)}" '
                f'y2="{_fmt(leaf_y)}" stroke="#777777" stroke-width="1"/>'
            )
            body.extend(
                _tree_box(lx, leaf_y, lw, bh, leaf_key, leaf, PALETTE[a_i])
            )
    return _doc(width, height, body, title)
