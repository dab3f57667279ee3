import ast
import hashlib
import math
import re
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from treatpolicy import figures, layout
from treatpolicy.config import validate_config
from treatpolicy.figures import (
    box_stats,
    nice_ticks,
    svg_box,
    svg_histogram,
    svg_rank_curve,
    svg_scatter,
    svg_tree,
)
from treatpolicy.pipeline import RunManifest
from treatpolicy.report import emit_report


def well_formed(svg: str) -> xml.dom.minidom.Document:
    return xml.dom.minidom.parseString(svg)


_LEAF = {"n": 5, "mean": 1.0, "sem": 0.1, "children": {}}

# Each renderer on fixed inputs that reach every element it draws.
RENDER = {
    "histogram": lambda: svg_histogram(
        [{"title": "m1", "edges": [0, 1, 2, 3],
          "series": [{"label": "a", "counts": [3, 0, 5]}, {"label": "b", "counts": [1, 2, 0]}]},
         {"title": "m2", "edges": [0, 1, 2, 3], "series": [{"label": "a", "counts": [2, 2, 2]}]}],
        title="hist", x_label="value"),
    "scatter": lambda: svg_scatter([{"label": "a<b&c", "x": [0, 1], "y": [0, 1]},
                                    {"label": "other", "x": [0], "y": [1]}]),
    "box": lambda: svg_box([{"label": "p", "values": [0, 1, 2, 3, 4, 50, -10]}], title="boxes"),
    "rank curve": lambda: svg_rank_curve(
        [{"label": "m", "fractions": [0.0, 0.5, 1.0], "values": [1.0, 1.5, 1.2]}], title="rank"),
    "tree": lambda: svg_tree(
        {"n": 20, "mean": 0.5, "sem": 0.2,
         "children": {arm: {"n": n, "mean": mean, "sem": sem,
                            "children": {"agree": _LEAF, "disagree": _LEAF, "defer": _LEAF}}
                      for arm, n, mean, sem in (("arm_0", 12, 0.4, 0.2), ("arm_1", 8, 0.7, 0.3))}},
        title="tree"),
}


class TestNiceTicks:
    def grid_ok(self, ticks):
        steps = np.diff(ticks)
        assert np.allclose(steps, steps[0])
        mantissa = steps[0] / 10.0 ** math.floor(math.log10(steps[0]))
        assert any(abs(mantissa - m) < 1e-9 for m in (1.0, 2.0, 2.5, 5.0))

    def test_simple_ranges(self):
        for lo, hi in ((0, 10), (-3.7, 9.2), (0.001, 0.01), (-500, 1500)):
            ticks = nice_ticks(lo, hi)
            assert ticks[0] >= lo and ticks[-1] <= hi
            assert 2 <= len(ticks) <= 8
            self.grid_ok(ticks)

    def test_degenerate_range_still_returns_ticks(self):
        ticks = nice_ticks(2.0, 2.0)
        assert len(ticks) >= 1

    def test_zero_is_exact(self):
        assert 0.0 in nice_ticks(-1.0, 1.0)


class TestBoxStats:
    def test_five_point_hand_case(self):
        s = box_stats([0, 1, 2, 3, 4])
        assert s == {
            "q1": 1.0, "median": 2.0, "q3": 3.0,
            "whisker_low": 0.0, "whisker_high": 4.0, "outliers": [],
        }

    def test_whiskers_stop_at_fences(self):
        # sorted [-10,0,1,2,3,4,50]: q1=0.5, q3=3.5, fences [-4, 8]
        s = box_stats([50, 0, 1, 2, 3, 4, -10])
        assert s["q1"] == 0.5 and s["q3"] == 3.5
        assert s["whisker_low"] == 0.0 and s["whisker_high"] == 4.0
        assert s["outliers"] == [-10.0, 50.0]

    def test_nans_dropped_and_empty_rejected(self):
        s = box_stats([1.0, float("nan"), 3.0])
        assert s["median"] == 2.0
        with pytest.raises(ValueError, match="finite"):
            box_stats([float("nan")])


class TestSvgRenderers:
    def test_histogram_panels_and_legend(self):
        svg = RENDER["histogram"]()
        well_formed(svg)
        assert "hist" in svg and "m1" in svg and "m2" in svg
        assert svg.count('opacity="0.55"') == 7  # zero-count bars are skipped

    def test_histogram_rejects_mismatched_counts(self):
        panels = [{"title": "", "edges": [0, 1, 2], "series": [{"label": "a", "counts": [1]}]}]
        with pytest.raises(ValueError, match="len\\(edges\\)"):
            svg_histogram(panels)

    def test_scatter_identity_line(self):
        series = [{"label": "dr", "x": [0.0, 1.0, 2.0], "y": [0.1, 0.9, 2.2]}]
        with_line = svg_scatter(series)
        well_formed(with_line)
        assert "stroke-dasharray" in with_line

    def test_box_draws_outlier_points(self):
        svg = RENDER["box"]()
        well_formed(svg)
        assert "boxes" in svg

    def test_rank_curve_labels_endpoints(self):
        svg = RENDER["rank curve"]()
        well_formed(svg)
        assert "Treat-all-0" in svg and "Treat-all-1" in svg

    def test_tree_shows_split_leaves(self):
        svg = RENDER["tree"]()
        well_formed(svg)
        for label in ("agree", "disagree", "defer", "observed arm 0", "observed arm 1"):
            assert label in svg

    def test_text_is_escaped(self):
        svg = RENDER["scatter"]()
        well_formed(svg)
        assert "a<b&c" not in svg and "a&lt;b&amp;c" in svg

    def test_rendering_is_deterministic(self):
        series = [{"label": "m", "x": list(np.linspace(0, 1, 40)),
                   "y": list(np.sin(np.linspace(0, 6, 40)))}]
        assert svg_scatter(series) == svg_scatter(series)

    @pytest.mark.parametrize("name, digest", [
        ("histogram", "d26a47711c76561717deedca7e940b4a377cf989ebbb44de1ccaf48fbd5935b9"),
        ("scatter", "e436eb1656d5c882e6f961ad7145ed83aa48edd8000ecd2c6c031e9e75bf6b4c"),
        ("box", "ff8af5e5a96167a6c24dc84cd860067063ba7edf686ef88d5e8632665e6dc88e"),
        ("rank curve", "f26ac82d567278eed646c14a4d9175314a972ffc85145c9cc15aca80f1d234ba"),
        ("tree", "d2e5e3d42a3800ca33bafdf7f09f3e37094ddc48631292d802b7bf0fbc80a4ab"),
    ])
    def test_rendered_bytes_are_pinned(self, name, digest):
        # a figure is committed and diffed as bytes, so no byte may move unnoticed
        assert hashlib.sha256(RENDER[name]().encode()).hexdigest() == digest

    def test_every_element_is_written_by_the_one_writer(self):
        # a string literal that opens or closes an element tag, other than the
        # <svg> root, may appear only inside figures._el
        tree = ast.parse(Path(figures.__file__).read_text())
        writer = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_el")
        inside = {id(n) for n in ast.walk(writer)}
        tags = [
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in inside and re.search(r"<(?!/?svg\b)/?[A-Za-z]", node.value)
        ]
        assert tags == []


class TestEmitReport:
    def test_missing_artifacts_become_placeholders(self, tmp_path):
        cfg = validate_config(
            {"data": {"path": "t.csv", "treatment": "t", "outcome": "y"},
             "output_dir": str(tmp_path)}
        )
        manifest = RunManifest.fresh(cfg)
        io = layout.StageIO(str(tmp_path), "report")
        bins = cfg.echo["report"]["bins"]
        artifacts, warnings = emit_report(str(tmp_path), manifest.to_dict(), bins, io)
        assert artifacts == ["report/index.md"]
        assert len(warnings) == 6
        assert all(w["kind"] == "missing-artifact" for w in warnings)
        index = (tmp_path / "report" / "index.md").read_text()
        assert index.count("not produced") == 6
        assert cfg.hash in index
