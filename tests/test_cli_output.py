"""Command-line output files are closed; only bridge errors become NaN."""

import builtins
import math

import pytest

from walklab import cli
from walklab.models import ModelSpec, build_model
from walklab.series import return_probabilities


def test_every_output_file_is_closed(monkeypatch, tmp_path):
    opened = []

    def tracking_open(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    schema = tmp_path / "schema.txt"
    schema.write_text("1 1 2 1 1\n1 1 1 2 2\n")
    model = ["--family", "fixed_end_tree", "--b", "2"]
    jobs = {
        "series": ["series", *model, "--nmax", "6"],
        "fit": ["fit", *model, "--window", "10:40"],
        "ballot": ["ballot", *model, "--n-grid", "10", "--rmax", "1"],
        "levels": ["levels", *model, "--n", "8", "--samples", "50",
                   "--seed", "1"],
        "excursions": ["excursions", *model, "--n", "30"],
        "quasi": ["quasi", "--schema", str(schema)],
    }
    for name, argv in jobs.items():
        out = tmp_path / f"{name}.out"
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert out.read_text().strip()
    assert len(opened) == len(jobs) + 1  # each output, plus the schema
    assert all(fh.closed for fh in opened)


def test_bridge_visits_safe_only_maps_bridge_errors():
    chain = build_model(ModelSpec("fixed_end_tree", b=2)).collapse(10)
    u = return_probabilities(chain, 10)
    assert math.isnan(cli.bridge_visits_safe(chain, u, 12, 0))
    with pytest.raises(TypeError):
        cli.bridge_visits_safe(chain, None, 10, 0)
