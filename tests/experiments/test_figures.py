"""The figure result containers and the analytic Fig. 3, the one figure
that is not a declaration. The paper's trained figures and tables are
declarations (tests/experiments/test_paper.py).
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

