"""Minimal self-contained SVG charts, built as plain strings.

Every function returns a complete ``<svg>`` document with no external
assets, scripts, or timestamps, so identical inputs give identical bytes
and the files diff cleanly under version control.  Every element inside the
root is written by :func:`_el`, which formats coordinates and escapes text
in one place; the chart functions hold only their layout arithmetic.
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


# the stroke of frames, ticks, boxes and tree nodes
_INK = {"stroke": "#333333", "stroke_width": "1"}


def _el(tag: str, text: str | None = None, /, **attrs) -> str:
    """One SVG element with ``attrs`` in the order given, an underscore in a
    name written as a hyphen: a number as a pixel coordinate (:func:`_fmt`),
    a string as given.  ``text``, escaped, is its content; an element without
    text closes itself."""
    cells = "".join(f' {name.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"'
                    for name, v in attrs.items())
    return f"<{tag}{cells}/>" if text is None else f"<{tag}{cells}>{escape(text)}</{tag}>"


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
        out = [_el("rect", x=self.x0, y=self.y0, width=self.w, height=self.h, fill="none",
                   **_INK)]
        if x_ticks is None:
            x_ticks = nice_ticks(*self.xlim)
        base = self.y0 + self.h
        for t in x_ticks:
            if not self.xlim[0] <= t <= self.xlim[1]:
                continue
            x = self.px(t)
            out.append(_el("line", x1=x, y1=base, x2=x, y2=base + 4, **_INK))
            out.append(_el("text", _num(t), x=x, y=base + 16, font_size="10",
                           text_anchor="middle", fill="#333333"))
        for t in nice_ticks(*self.ylim):
            if not self.ylim[0] <= t <= self.ylim[1]:
                continue
            y = self.py(t)
            out.append(_el("line", x1=self.x0 - 4, y1=y, x2=self.x0, y2=y, **_INK))
            out.append(_el("text", _num(t), x=self.x0 - 7, y=y + 3, font_size="10",
                           text_anchor="end", fill="#333333"))
        if x_label:
            out.append(_el("text", x_label, x=self.x0 + self.w / 2, y=base + 32, font_size="11",
                           text_anchor="middle", fill="#333333"))
        if y_label:
            cx, cy = self.x0 - 42, self.y0 + self.h / 2
            out.append(_el("text", y_label, x=cx, y=cy, font_size="11", text_anchor="middle",
                           fill="#333333", transform=f"rotate(-90 {_fmt(cx)} {_fmt(cy)})"))
        return out


def _doc(width: int, height: int, body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">',
        _el("rect", x="0", y="0", width=str(width), height=str(height), fill="#ffffff"),
    ]
    if title:
        head.append(_el("text", title, x=f"{width / 2:.0f}", y="20", font_size="14",
                        text_anchor="middle", fill="#111111"))
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _legend(frame: _Frame, labels: list[str]) -> list[str]:
    out = []
    for i, label in enumerate(labels):
        x, y = frame.x0 + frame.w - 150, frame.y0 + 14 + 16 * i
        color = PALETTE[i % len(PALETTE)]
        out.append(_el("rect", x=x, y=y - 9, width="10", height="10", fill=color))
        out.append(_el("text", label, x=x + 15, y=y, font_size="10", fill="#333333"))
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
            body.append(_el("text", panel["title"], x="62", y=y_top + 8, font_size="11",
                            fill="#111111"))
        for s_i, s in enumerate(series):
            color = PALETTE[s_i % len(PALETTE)]
            for b, count in enumerate(s["counts"]):
                if count <= 0:
                    continue
                x_l, x_r = frame.px(edges[b]), frame.px(edges[b + 1])
                y = frame.py(count)
                body.append(_el("rect", x=x_l, y=y, width=x_r - x_l, height=frame.y0 + frame.h - y,
                                fill=color, fill_opacity="0.55", stroke=color,
                                stroke_width="0.5"))
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
    body = [_el("line", x1=frame.px(a), y1=frame.py(a), x2=frame.px(b), y2=frame.py(b),
                stroke="#999999", stroke_width="1", stroke_dasharray="4 3")]
    for s_i, s in enumerate(series):
        color = PALETTE[s_i % len(PALETTE)]
        for x, y in zip(s["x"], s["y"]):
            body.append(_el("circle", cx=frame.px(x), cy=frame.py(y), r="3", fill=color,
                            fill_opacity="0.75"))
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
        body.append(_el("line", x1=x_c, y1=frame.py(s["whisker_low"]), x2=x_c, y2=y_q1, **_INK))
        body.append(_el("line", x1=x_c, y1=y_q3, x2=x_c, y2=frame.py(s["whisker_high"]), **_INK))
        for y_val in (s["whisker_low"], s["whisker_high"]):
            y = frame.py(y_val)
            body.append(_el("line", x1=frame.px(cx - half / 2), y1=y, x2=frame.px(cx + half / 2),
                            y2=y, **_INK))
        body.append(_el("rect", x=x_l, y=y_q3, width=x_r - x_l, height=y_q1 - y_q3, fill=color,
                        fill_opacity="0.45", **_INK))
        y_med = frame.py(s["median"])
        body.append(_el("line", x1=x_l, y1=y_med, x2=x_r, y2=y_med, stroke="#111111",
                        stroke_width="1.5"))
        for out_v in s["outliers"]:
            body.append(_el("circle", cx=x_c, cy=frame.py(out_v), r="2.5", fill="none", **_INK))
        y_text = frame.y0 + frame.h + 16
        body.append(_el("text", item["label"], x=x_c, y=y_text, font_size="10",
                        text_anchor="middle", fill="#333333",
                        transform=f"rotate(-20 {_fmt(x_c)} {_fmt(y_text)})"))
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
        body.append(_el("polyline", points=pts, fill="none", stroke=color, stroke_width="1.5"))
        for x, y in pairs:
            body.append(_el("circle", cx=frame.px(x), cy=frame.py(y), r="2.5", fill=color))
    body.extend(frame.axes(x_label="fraction treated", y_label="value"))
    base = frame.y0 + frame.h
    for end, anchor in ((0, "start"), (1, "end")):
        body.append(_el("text", f"Treat-all-{end}", x=frame.px(end), y=base + 30, font_size="10",
                        text_anchor=anchor, fill="#555555"))
    if len(series) > 1:
        body.extend(_legend(frame, [s["label"] for s in series]))
    return _doc(width, height, body, title)


def _tree_box(x, y, w, h, label, node, color) -> list[str]:
    return [
        _el("rect", x=x, y=y, width=w, height=h, rx="4", fill=color, fill_opacity="0.18", **_INK),
        _el("text", label, x=x + w / 2, y=y + 15, font_size="11", text_anchor="middle",
            fill="#111111"),
        _el("text", f"n={node['n']}", x=x + w / 2, y=y + 29, font_size="10",
            text_anchor="middle", fill="#333333"),
        _el("text", f"mean={_num(node['mean'])} sem={_num(node['sem'])}", x=x + w / 2, y=y + 42,
            font_size="10", text_anchor="middle", fill="#333333"),
    ]


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
        body.append(_el("line", x1=root_x + bw / 2, y1=40 + bh, x2=cx, y2=arm_y,
                        stroke="#777777", stroke_width="1"))
        body.extend(_tree_box(ax, arm_y, bw, bh, arm_label, arm, PALETTE[a_i]))
        leaves = ("agree", "disagree", "defer")
        gap, lw = 8, 110
        start = cx - (lw * 3 + gap * 2) / 2
        for l_i, leaf_key in enumerate(leaves):
            leaf = arm["children"][leaf_key]
            lx = start + l_i * (lw + gap)
            body.append(_el("line", x1=cx, y1=arm_y + bh, x2=lx + lw / 2, y2=leaf_y,
                            stroke="#777777", stroke_width="1"))
            body.extend(_tree_box(lx, leaf_y, lw, bh, leaf_key, leaf, PALETTE[a_i]))
    return _doc(width, height, body, title)
