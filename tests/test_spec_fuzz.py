"""Configs drawn from the experiment specs and from mutations of them.

Whatever a config holds, ``kvnlab verify`` accepts it or refuses it with one
``config error`` line, and a run ends in exit 0, 2, 3 or 4 with at most one
stderr line and never a traceback.  Exit 0 writes only finite tables.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kvnlab.cli import SPECS, Choice, Grid, Int, ListOf, Num, load_config, main
from kvnlab.report import read_table

#: Experiments cheap enough to run on every drawn config, once their grids are small.
CHEAP = ("measure", "uncertainty", "aharonov-bohm", "wigner", "kernelcheck")

#: Wrong JSON types, non-finite numbers and integers beyond any bound.
JUNK = st.sampled_from(
    ["1.0", "abc", True, None, [], {}, [1], float("nan"), float("inf"), -float("inf"),
     10**30, -(10**30), 2**62]
)

FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def valid(field):
    """Values that ``field`` parses, small enough that a run stays cheap."""
    if isinstance(field, Grid):
        return st.builds(lambda n, lo, span: {"n": n, "min": lo, "max": lo + span},
                         st.sampled_from([8, 16, 32]), st.floats(-20.0, 0.0), st.floats(1.0, 40.0))
    if isinstance(field, Num):
        lo = max(field.lo, 1e-3 if field.positive else -50.0)
        extremes = [x for x in (5e-324, 1e-300, 1e300, -1e300, 0.0)
                    if field.lo <= x <= field.hi and (x > 0 or not field.positive)]
        return st.one_of(st.floats(lo, min(field.hi, 50.0)), st.sampled_from(extremes))
    if isinstance(field, Int):
        return st.integers(max(field.lo, -3), max(field.lo, 0) + 12)
    if isinstance(field, Choice):
        return st.sampled_from(field.names)
    assert isinstance(field, ListOf)
    return st.lists(valid(field.item), min_size=field.least, max_size=min(field.most, 4))


def broken_grid(grid: dict):
    return st.sampled_from([
        {k: v for k, v in grid.items() if k != "max"},
        dict(grid, step=1),
        dict(grid, n=2**30),
        dict(grid, n=12),
        dict(grid, min=grid["max"]),
    ])


def mutated(field):
    """Valid values, junk, and values that are wrong only inside a list or grid."""
    options = [valid(field), JUNK]
    if isinstance(field, ListOf):
        options.append(st.lists(mutated(field.item), max_size=3))
    if isinstance(field, Grid):
        options.append(valid(field).flatmap(broken_grid))
    return st.one_of(options)


def configs(names, values, required=(), unknown=()):
    """``{"experiment", "params", ...}`` for one of ``names``: each key drawn by
    ``values``, the ``required`` ones always and valid, ``unknown`` keys at times."""
    def config(name):
        spec = SPECS[name]
        params = st.fixed_dictionaries(
            {key: valid(spec[key]) for key in required if key in spec},
            optional={**{key: values(f) for key, f in spec.items() if key not in required},
                      **{key: JUNK for key in unknown}},
        )
        return st.fixed_dictionaries(
            {"experiment": st.just(name), "params": params},
            optional={"hbar": values(Num(positive=True)), "seed": values(Int())},
        )
    return st.sampled_from(names).flatmap(config)


def call(command: str, body: dict):
    """Exit code, stderr lines and the tables written by ``kvnlab command``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "config.json"
        path.write_text(json.dumps(body))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
        tables = [read_table(p)[1] for p in Path(directory).glob("*.csv")]
    return code, err.getvalue().strip().splitlines(), tables


@settings(FUZZ, max_examples=300)
@given(configs(sorted(SPECS), mutated, unknown=("bogus",)))
def test_verify_accepts_or_refuses_in_one_line(body):
    code, err, _ = call("verify", body)
    assert code in (0, 2)
    assert len(err) == (code != 0)
    assert all(line.startswith("config error: ") for line in err)


@settings(FUZZ, max_examples=150)
@given(configs(CHEAP, valid, required=("grid", "p_grid", "kvn_grid")))
def test_cheap_runs_end_cleanly_and_write_only_finite_tables(body):
    code, err, tables = call("run", body)
    assert code in (0, 2, 3, 4)
    assert len(err) == (code != 0)
    if code == 0:
        assert tables and all(np.isfinite(rows).all() for rows in tables)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_listed_defaults_verify_and_hash_like_the_empty_config(tmp_path, capsys, name):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    defaults = json.loads(lines[lines.index(name) + 1].split("defaults:", 1)[1])
    explicit, empty = tmp_path / "explicit.json", tmp_path / "empty.json"
    explicit.write_text(json.dumps({"experiment": name, "params": defaults}))
    empty.write_text(json.dumps({"experiment": name}))
    assert main(["verify", str(explicit)]) == 0
    assert load_config(explicit).hash == load_config(empty).hash
