"""The figure result containers, the analytic Fig. 3 and the worker-axis
scalability figure. The paper's trained figures and tables are declarations
(tests/experiments/test_paper.py).
"""

import numpy as np
import pytest

from repro.experiments import figure3_iteration_time
from repro.experiments.common import ExperimentOutput, Series


class TestCommonContainers:
    def test_series_validates_shapes(self):
        with pytest.raises(ValueError, match="shapes differ"):
            Series("x", np.arange(3), np.arange(4))

    def test_output_render_contains_id(self):
        out = ExperimentOutput("figX", "t", ["a"], [[1.0]])
        assert "[figX]" in out.render()

    def test_row_dict(self):
        out = ExperimentOutput("figX", "t", ["k", "v"], [["a", 1], ["b", 2]])
        assert out.row_dict()["a"] == ["a", 1]


class TestFigure3:
    def test_inter_slower_than_intra(self):
        out = figure3_iteration_time()
        for row in out.rows:
            model, intra, inter, ratio = row
            assert inter > intra
            assert ratio == pytest.approx(inter / intra)

    def test_vgg_ratio_larger_than_resnet(self):
        rows = figure3_iteration_time().row_dict()
        assert rows["vgg19"][3] > rows["resnet18"][3]


class TestFigureScalability:
    def test_small_sweep_structure(self):
        from repro.experiments import figure_scalability

        out = figure_scalability(worker_counts=(8, 16), max_sim_time=5.0)
        # adpsgd and netmax-local both run at these sizes -> 4 rows.
        assert len(out.rows) == 4
        labels = {row[0] for row in out.rows}
        assert labels == {"adpsgd", "netmax-local"}
        for row in out.rows:
            events_per_s = row[3]
            assert events_per_s > 0
        by_label = {series.label: series for series in out.series}
        assert list(by_label["adpsgd"].x) == [8.0, 16.0]

    def test_netmax_capped_above_its_max(self):
        from repro.experiments.figures_scaling import (
            NETMAX_LOCAL_MAX_WORKERS,
            figure_scalability,
        )

        out = figure_scalability(
            worker_counts=(NETMAX_LOCAL_MAX_WORKERS * 2,), max_sim_time=2.0
        )
        assert {row[0] for row in out.rows} == {"adpsgd"}
