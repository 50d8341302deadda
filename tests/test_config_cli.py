import argparse
import contextlib
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralfield.cli import main, run
from neuralfield.config import (
    DEFAULT_CONFIG,
    INITIAL_DEFAULTS,
    build_config,
    initial_state,
    parse_config,
)
from neuralfield.errors import ParseError, SchemaError
from neuralfield import discretization, io
from neuralfield.discretization import Grid, build_operator
from neuralfield.gainfield import schrodinger_fd, square_well
from neuralfield.io import (atomic_write, fmt, g17_cells, node_rows, output_lock, sha256_file,
                            write_csv)
from neuralfield.model import compute_constants
from neuralfield.solver import solve_global
from neuralfield.stationary import find_stationary_fp


# the edges of %.17g's fixed notation, and half-even ties of both parities
EDGE_VALUES = [9.9999999999999991e-05, 0.0001, 99999999999999984.0, 1e17,
               1234567890123456.25, 1234567890123456.75]


def percent_g(values):
    return [b"%.17g" % x for x in np.asarray(values, dtype=float).ravel().tolist()]


HOLD_LOCK = """import sys
from neuralfield.io import output_lock
with output_lock(sys.argv[1]):
    print("held", flush=True)
    sys.stdin.read()
"""


@contextlib.contextmanager
def lock_holder(out):
    """A second process that holds ``out``'s output lock until its stdin
    closes at the end of the block."""
    with subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(out)], text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as holder:
        try:
            assert holder.stdout.readline() == "held\n"
            yield holder
        finally:
            holder.stdin.close()
            assert holder.wait(timeout=30) in (0, -signal.SIGKILL)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def manifests_at_blas_threads(tmp_path, command, doc, threads):
    """The manifest of one CLI run of ``doc`` per BLAS thread count in
    ``threads``, each in a fresh process."""
    path = write_config(tmp_path, doc)
    manifests = []
    for k, count in enumerate(threads):
        out = tmp_path / f"blas-{k}"
        result = subprocess.run(
            [sys.executable, "-m", "neuralfield.cli", command, "--config", path, "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": count, "OMP_NUM_THREADS": count},
        )
        assert result.returncode == 0, result.stderr
        manifests.append(json.loads((out / "manifest.json").read_text()))
    return manifests


class TestSchema:
    def test_empty_document_fills_defaults(self):
        cfg = build_config({}, environ={})
        assert cfg.model.gamma == 1.0
        assert cfg.grid.npts == (401,)
        assert cfg.solver.method == "exp-euler"
        assert cfg.document["model"]["gamma"] == 1.0
        assert cfg.document["study"]["contraction"]["n_pairs"] == 200

    def test_negative_gamma_names_the_field(self):
        with pytest.raises(SchemaError) as err:
            build_config({"model": {"gamma": -0.1}}, environ={})
        assert any(v.startswith("model.gamma") for v in err.value.violations)

    def test_linear_firing_cites_mode_restriction(self):
        doc = {"model": {"firing": {"kind": "linear", "params": {}}}}
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        assert any("gain-field" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        doc = {
            "model": {"gamma": -1.0},
            "solver": {"dt": -0.5},
            "grid": {"nodes": [2]},
            "bogus": True,
        }
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        joined = "\n".join(err.value.violations)
        for needle in ("model.gamma", "solver.dt", "grid.nodes", "bogus: unknown key"):
            assert needle in joined
        assert len(err.value.violations) >= 4

    def test_unknown_nested_key(self):
        with pytest.raises(SchemaError) as err:
            build_config({"solver": {"timestep": 0.1}}, environ={})
        assert any(v.startswith("solver.timestep") for v in err.value.violations)

    def test_simpson_needs_odd_nodes(self):
        doc = {"quadrature": "simpson", "grid": {"nodes": [400]}}
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        assert any("odd" in v for v in err.value.violations)

    def test_dt_vs_segment(self):
        with pytest.raises(SchemaError) as err:
            build_config({"solver": {"dt": 0.5, "segment_rho": 0.1}}, environ={})
        assert any("segment_rho" in v for v in err.value.violations)

    def test_env_override_scalar(self):
        cfg = build_config({}, environ={"NF_MODEL_GAMMA": "0.25"})
        assert cfg.model.gamma == 0.25
        assert cfg.document["model"]["gamma"] == 0.25

    def test_env_override_multi_token_key(self):
        cfg = build_config({}, environ={"NF_SOLVER_PICARD_TOL": "1e-8",
                                        "NF_GRID_BOUNDARY": "periodic"})
        assert cfg.solver.picard_tol == 1e-8
        assert cfg.grid.boundary == "periodic"

    def test_env_override_reaches_study_sections(self):
        cfg = build_config({}, environ={"NF_STUDY_L1_GAMMA": "null",
                                        "NF_STUDY_CONTRACTION_N_PAIRS": "25"})
        assert cfg.document["study"]["l1"]["gamma"] is None
        assert cfg.document["study"]["contraction"]["n_pairs"] == 25

    def test_env_override_unknown_key_is_violation(self):
        with pytest.raises(SchemaError) as err:
            build_config({}, environ={"NF_MODEL_GAMA": "0.5"})
        assert any("NF_MODEL_GAMA" in v for v in err.value.violations)

    def test_env_override_still_validated(self):
        with pytest.raises(SchemaError) as err:
            build_config({}, environ={"NF_MODEL_GAMMA": "-3"})
        assert any(v.startswith("model.gamma") for v in err.value.violations)

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(str(bad), environ={})
        with pytest.raises(ParseError):
            parse_config(str(tmp_path / "missing.json"), environ={})

    def test_initial_state_kinds(self):
        cfg = build_config({}, environ={})
        zero = initial_state(cfg, kind="zero", params={})
        assert np.all(zero.values == 0.0)
        step = initial_state(cfg, kind="step", params={})
        assert set(np.unique(step.values)) == {0.0, 1.0}
        const = initial_state(cfg, kind="constant", params={"value": 0.7})
        assert np.all(const.values == 0.7)


# the defaults as documented in README; the schema table must keep them
EXPECTED_DEFAULTS = {
    "model": {
        "kernel": {"kind": "exponential", "params": {"amplitude": 0.5, "decay": 1.0}},
        "firing": {"kind": "sigmoid", "params": {"slope": 1.0, "threshold": 0.0}},
        "learning": {"kind": "gaussian", "params": {"width": 1.0}},
        "gamma": 1.0,
        "mode": "well-posed",
    },
    "grid": {"bounds": [[-10.0, 10.0]], "nodes": [401], "boundary": "compact"},
    "quadrature": "trapezoid",
    "solver": {"method": "exp-euler", "dt": 0.05, "t_end": 10.0, "segment_rho": None,
               "picard_tol": 1e-10, "picard_max_iter": 200},
    "initial": {"kind": "gaussian-bump", "params": {"amplitude": 0.5, "center": 0.0, "width": 2.0}},
    "seed": 12345,
    "stationary": {"method": "fp", "damping": 0.5, "tol": 1e-9, "max_iter": 5000, "t_max": 500.0,
                   "settle_tol": 1e-8, "dt": 0.1},
    "gainfield": {"lambda": 1.0, "half_width": 1.0, "k_pre": 1.0, "n_eigs": 12,
                  "crosscheck_box": 20.0, "crosscheck_nodes": 2001},
    "schrodinger": {"half_width": 1.0, "height": 2.0, "box": 20.0, "nodes": 2001, "n_states": 4,
                    "lambda": None},
    "study": {
        "plasticity": {"gamma_list": [0.4, 0.2, 0.1, 0.05, 0.025], "t_end": 10.0, "dt": 0.05,
                       "method": "rk4", "slack": 0.0},
        "dependence": {"eps_list": [0.2, 0.1, 0.05], "rho": None, "dt": 0.001, "slack_coeff": 10.0},
        "contraction": {"n_pairs": 200, "rho": None, "time_steps": 8, "slack": 0.01},
        "l1": {"t_end": 20.0, "dt": 0.05, "slack": 1e-6, "gamma": 0.0,
               "initials": ["zero", "step", "initial"]},
    },
}

# a section that switches kind without params takes the new kind's defaults
KIND_SWITCHES = [
    {"model": {"kernel": {"kind": "mexican-hat"}}},
    {"model": {"firing": {"kind": "scaled-arctan"}}},
    {"initial": {"kind": "zero"}},
    {"initial": {"kind": "step"}},
]

# a params section given in part keeps its kind's other defaults
PARTIAL_PARAMS = {"model": {"kernel": {"kind": "mexican-hat"},
                            "firing": {"params": {"slope": 2.0}}},
                  "initial": {"kind": "step"}}


class TestSchemaTable:
    def test_default_config_unchanged(self):
        assert DEFAULT_CONFIG == EXPECTED_DEFAULTS
        assert build_config({}, environ={}).document == EXPECTED_DEFAULTS

    @pytest.mark.parametrize("doc", KIND_SWITCHES)
    def test_kind_switch_validates_and_runs(self, tmp_path, doc):
        path = write_config(tmp_path, {**small_sim_doc(t_end=0.5), **doc})
        assert main(["validate", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0

    def test_kind_switch_takes_the_new_kinds_defaults(self):
        cfg = build_config({"model": {"kernel": {"kind": "mexican-hat"}}}, environ={})
        assert cfg.model.kernel.params == {"scale": 1.0}
        cfg = build_config({}, environ={"NF_MODEL_FIRING_KIND": "scaled-arctan"})
        assert cfg.model.firing.params == {"scale": 1.0}
        # the filled default is a key the NF_ variable can reach
        cfg = build_config({"model": {"kernel": {"kind": "mexican-hat"}}},
                           environ={"NF_MODEL_KERNEL_PARAMS_SCALE": "2.0"})
        assert cfg.model.kernel.params == {"scale": 2.0}

    @pytest.mark.parametrize("doc", KIND_SWITCHES + [PARTIAL_PARAMS])
    def test_echo_lists_the_params_the_run_used(self, doc):
        cfg = build_config(doc, environ={})
        echo = cfg.document
        for name in ("kernel", "firing", "learning"):
            assert echo["model"][name]["params"] == getattr(cfg.model, name).params
        initial = echo["initial"]
        assert initial["params"].keys() == INITIAL_DEFAULTS[initial["kind"]].keys()
        rebuilt = initial_state(cfg, initial["kind"], initial["params"])
        assert np.array_equal(rebuilt.values, cfg.initial.values)

    def test_manifest_echoes_the_filled_params(self, tmp_path):
        out = tmp_path / "o"
        assert run("constants", build_config(PARTIAL_PARAMS, environ={}), out) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert echo["model"]["kernel"]["params"] == {"scale": 1.0}
        assert echo["model"]["firing"]["params"] == {"slope": 2.0, "threshold": 0.0}
        assert echo["initial"]["params"] == {"low": 0.0, "high": 1.0, "split": None}

    @pytest.mark.parametrize("doc,needle", [
        ({"model": {"kernel": {"params": {"decay": -1}}}}, "model: exponential kernel decay"),
        ({"model": {"firing": {"params": {"slope": 1.0, "gain": 2.0}}}}, "model: firing rate"),
        ({"model": {"firing": {"params": {"slope": "steep"}}}}, "model: firing rate"),
        ({"model": {"learning": {"params": {"width": -1.0}}}}, "model: "),
        ({"initial": {"kind": "zero", "params": {"amplitude": 1.0}}}, "initial: initial kind 'zero'"),
        ({"initial": {"params": {"amplitude": "tall"}}}, "initial: "),
        ({"grid": {"bounds": [[0.0, 1.0]], "nodes": [5, 5]}}, "grid: need one node count"),
        ({"quadrature": "simpson", "grid": {"boundary": "periodic"}}, "quadrature: simpson"),
        ({"model": {"learning": {"params": {"width": "wide"}}}},
         "model: learning kernel 'gaussian' params must be numbers"),
    ])
    def test_constructor_errors_exit_2_with_section(self, tmp_path, capsys, doc, needle):
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config error: {needle}" in err and "Traceback" not in err

    def test_leaf_rules_are_collected_before_constructors_run(self):
        doc = {"model": {"gamma": -1.0, "firing": {"kind": "linear", "params": {}}},
               "stationary": {"damping": 2.0}, "study": {"plasticity": {"gamma_list": [0.1, 0.2]}},
               "seed": -1}
        with pytest.raises(SchemaError) as err:
            build_config(doc, environ={})
        assert sorted(v.split(":")[0] for v in err.value.violations) == [
            "model.gamma", "seed", "stationary.damping", "study.plasticity.gamma_list"]


class TestIO:
    def test_fmt_round_trip(self):
        for x in (1.0 / 3.0, 1e-300, 123456.789, -0.1):
            assert float(fmt(x)) == x

    def test_write_csv_no_partial_files(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, 4.5]])
        assert path.read_text().splitlines()[0] == "a,b"
        assert not list(tmp_path.glob("*.tmp"))

    def test_atomic_write_replaces(self, tmp_path):
        p = tmp_path / "x.txt"
        atomic_write(p, [b"one"])
        atomic_write(p, (part for part in (b"t", b"w", b"o")))
        assert p.read_text() == "two"

    def test_failed_stream_leaves_the_old_file(self, tmp_path):
        p = tmp_path / "x.txt"
        atomic_write(p, [b"kept"])

        def chunks():
            yield b"partial"
            raise ValueError("stream broke")

        with pytest.raises(ValueError, match="stream broke"):
            atomic_write(p, chunks())
        assert p.read_text() == "kept" and not list(tmp_path.glob("*.tmp"))

    def test_atomic_write_returns_the_sha256_of_the_file(self, tmp_path):
        p = tmp_path / "x.bin"
        digest = atomic_write(p, (bytes([k]) * 1000 for k in range(256)))
        assert digest == sha256_file(p) == hashlib.sha256(p.read_bytes()).hexdigest()
        written = write_csv(tmp_path / "t.csv", ["a"], [[0.1]])
        assert written == hashlib.sha256(b"a\n0.10000000000000001\n").hexdigest()

    def test_artifacts_follow_the_umask(self, tmp_path):
        # the files of a run get the mode that open() gives a new file
        old = os.umask(0o022)
        try:
            out = tmp_path / "sch"
            cfg = build_config({"schrodinger": {"nodes": 101, "n_states": 1}}, environ={})
            assert run("schrodinger", cfg, out) == 0
            with open(out / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        expected = (out / "plain.txt").stat().st_mode
        for name in ("eigs.csv", "ground_state.csv", "schrodinger.json", "manifest.json"):
            assert (out / name).stat().st_mode == expected, name

    def test_write_csv_consumes_rows_as_a_stream(self, tmp_path, monkeypatch):
        # each row is written before the next is made: no whole-file string
        from neuralfield import io

        seen = []
        real = io.atomic_write

        def spy(path, chunks):
            real(path, (seen.append(chunk) or chunk for chunk in chunks))

        def rows():
            for k in range(3):
                assert len(seen) == k + 1  # the header and the rows so far
                yield f"{k},{k}".encode()

        monkeypatch.setattr(io, "atomic_write", spy)
        io.write_csv(tmp_path / "t.csv", ["a", "b"], rows())
        assert (tmp_path / "t.csv").read_text() == "a,b\n0,0\n1,1\n2,2\n"

    def test_lock_collision(self, tmp_path):
        with output_lock(tmp_path / "run"):
            with pytest.raises(RuntimeError, match="locked"):
                with output_lock(tmp_path / "run"):
                    pass
        # released afterwards
        with output_lock(tmp_path / "run"):
            pass

    def test_lock_of_dead_process_is_taken_over(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(str(child.pid))
        cfg = build_config({"schrodinger": {"nodes": 101, "n_states": 1}}, environ={})
        assert run("schrodinger", cfg, out) == 0
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_times", [None, 1, 4])
    def test_node_rows_match_per_cell_fmt(self, dim, n_times):
        special = [-0.0, 5e-324, 3.0, float(2**53 + 1), 1e16, 0.1, 1.0 / 3.0,
                   math.nan, math.inf, -math.inf, *EDGE_VALUES]
        n = len(special)
        coords = [np.linspace(-2.5, 1.0, n), -np.geomspace(1e-3, 7.0, n)]
        points = np.column_stack(coords[:dim])
        values = np.array([np.roll(special, k) * (-1.0) ** k for k in range(n_times or 1)])
        pts = list(points)
        if n_times is None:
            expected = [list(pts[i]) + [values[0, i]] for i in range(n)]
            fast = node_rows(points, values[0])
        else:
            times = np.array([0.0, 5e-324, 0.1, 1.0 / 3.0])[:n_times]
            expected = [[times[k], i] + list(pts[i]) + [values[k, i]]
                        for k in range(n_times) for i in range(n)]
            fast = node_rows(np.column_stack([np.arange(n), points]), values, times)
        assert b"\n".join(fast) == "\n".join(",".join(map(fmt, row)) for row in expected).encode()

    @pytest.mark.parametrize("per_chunk", [1, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_node_rows_in_chunks_equal_one_whole_batch(self, monkeypatch, dim, per_chunk):
        # chunks of one or three values split the node cells and every time
        # slice; blocks are whole lines, joined by newlines as write_csv does
        n = 11
        points = np.column_stack([np.linspace(-2.5, 1.0, n), -np.geomspace(1e-3, 7.0, n)][:dim])
        nodes = np.column_stack([np.arange(n), points])
        values = np.random.default_rng(dim).uniform(-2.0, 2.0, (5, n))
        values[1, :len(EDGE_VALUES)] = EDGE_VALUES
        values[2, :4] = [math.nan, -math.inf, 5e-324, -0.0]
        times = np.linspace(0.0, 0.4, 5)
        monkeypatch.setattr(discretization, "CHUNK_BYTES", 2 ** 62)
        whole = b"\n".join(node_rows(nodes, values, times))
        sizes = []
        real = io._g17_chunk
        monkeypatch.setattr(io, "_g17_chunk", lambda x: sizes.append(x.size) or real(x))
        monkeypatch.setattr(discretization, "CHUNK_BYTES", per_chunk * io._VALUE_BYTES)
        assert b"\n".join(node_rows(nodes, values, times)) == whole
        assert max(sizes) == per_chunk and sum(sizes) == nodes.size + times.size + values.size

    def test_g17_cells_equal_percent_g(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64)
        spread = rng.choice([-1.0, 1.0], 10 ** 6) * 10.0 ** rng.uniform(-4.0, 17.0, 10 ** 6)
        powers = [10.0 ** k for k in range(-6, 19)]
        around = [np.nextafter(p, toward) for p in powers for toward in (0.0, math.inf)]
        for values in (bits, spread, powers + around + EDGE_VALUES):
            assert g17_cells(values) == percent_g(values)
        assert g17_cells(EDGE_VALUES[-2:]) == [b"1234567890123456.2", b"1234567890123456.8"]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=40))
    def test_g17_cells_equal_percent_g_on_any_floats(self, values):
        assert g17_cells(values) == percent_g(values)

    def test_g17_cells_warn_about_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = g17_cells([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324])
        assert cells == [b"0", b"-0", b"nan", b"inf", b"-inf", b"4.9406564584124654e-324"]

    def test_g17_cells_temporaries_stay_within_the_budget(self):
        values = np.random.default_rng(5).uniform(-1.0, 1.0, 20 * discretization.CHUNK_BYTES
                                                  // io._VALUE_BYTES)
        g17_cells(values[:10])  # builds the tables
        tracemalloc.start()
        try:
            cells = g17_cells(values)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == values.size
        assert peak - kept <= discretization.CHUNK_BYTES

    def test_node_rows_of_a_slice_above_one_chunk_stay_within_the_budget(self):
        # 65,536 nodes, 19 chunks a slice: the temporaries behind each block,
        # above what the caller keeps, fit one chunk
        n = 65536
        nodes = np.column_stack([np.arange(n), np.linspace(-1.0, 1.0, n)])
        values = np.random.default_rng(3).uniform(-1.0, 1.0, (2, n))
        g17_cells(values[0, :10])  # builds the tables
        excess = []
        tracemalloc.start()
        try:
            for _ in node_rows(nodes, values, np.array([0.0, 0.5])):
                kept, peak = tracemalloc.get_traced_memory()
                excess.append(peak - kept)
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert max(excess) <= discretization.CHUNK_BYTES
        assert len(excess) > 2  # the slices came a node chunk at a time

    def test_stale_temp_file_of_a_killed_run_is_replaced(self, tmp_path):
        # a killed run of the same pid left it; containers often reuse the pid
        out = tmp_path / "run"
        out.mkdir()
        (out / f"trajectory.csv.{os.getpid()}.tmp").write_bytes(b"partial")
        assert main(["simulate", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "trajectory.csv" in manifest["checksums"]
        assert not list(out.glob("*.tmp"))

    def test_planted_temp_link_is_not_followed(self, tmp_path):
        target = tmp_path / "elsewhere.txt"
        target.write_text("kept")
        (tmp_path / f"x.txt.{os.getpid()}.tmp").symlink_to(target)
        atomic_write(tmp_path / "x.txt", [b"new"])
        assert target.read_text() == "kept" and (tmp_path / "x.txt").read_text() == "new"

    def test_live_holder_in_another_process_blocks(self, tmp_path):
        out = tmp_path / "run"
        with lock_holder(out):
            assert main(["constants", "--out", str(out)]) == 1
            assert [path.name for path in out.iterdir()] == [".lock"]

    def test_killed_holder_frees_the_directory_at_once(self, tmp_path):
        out = tmp_path / "run"
        with lock_holder(out) as holder:
            holder.kill()
            holder.wait()
            assert (out / ".lock").exists()  # left behind, but no one holds it
            assert main(["constants", "--out", str(out)]) == 0
        assert not (out / ".lock").exists()

    def test_lock_file_naming_a_live_pid_does_not_block(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        with subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                              stdin=subprocess.PIPE) as live:
            (out / ".lock").write_text(str(live.pid))
            assert main(["constants", "--out", str(out)]) == 0
            live.stdin.close()
        assert (out / "constants.json").exists() and not (out / ".lock").exists()

    def test_planted_lock_link_is_not_followed(self, tmp_path):
        target = tmp_path / "elsewhere.txt"
        target.write_text("kept")
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").symlink_to(target)
        result = subprocess.run([sys.executable, "-m", "neuralfield.cli", "constants",
                                 "--out", str(out)], capture_output=True, text=True)
        assert result.returncode == 3 and "OSError" in result.stderr
        assert target.read_text() == "kept" and (out / ".lock").is_symlink()
        assert [path.name for path in out.iterdir()] == [".lock"]


MERCER_KEYS = {"rank", "eig_error_bound", "k_pre_times_one_plus_gamma"}


def small_sim_doc(t_end=2.0):
    return {
        "grid": {"nodes": [101]},
        "solver": {"dt": 0.1, "t_end": t_end},
        "model": {"gamma": 0.5},
    }


class TestRun:
    def test_simulate_artifacts(self, tmp_path):
        cfg = build_config(small_sim_doc(), environ={})
        out = tmp_path / "sim"
        assert run("simulate", cfg, out) == 0
        for name in ("trajectory.csv", "bounds.csv", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"]["gamma"] == 0.5
        assert set(manifest["checksums"]) == {"trajectory.csv", "bounds.csv"}
        assert manifest["peak_rss_mb"] > 1.0
        assert isinstance(manifest["minor_page_faults"], int) and manifest["minor_page_faults"] >= 0
        # checksums match the files on disk
        for name, digest in manifest["checksums"].items():
            assert sha256_file(out / name) == digest
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,node_index,x,u"

    def test_picard_simulate_manifest_lists_segments(self, tmp_path):
        # one entry per segment, each converged at a rate within criterion
        # 4's slack of its q; other methods list none
        doc = small_sim_doc(t_end=1.0)
        doc["solver"].update(method="picard", dt=0.02, picard_tol=1e-10)
        out = tmp_path / "picard"
        assert run("simulate", build_config(doc, environ={}), out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        segments = manifest["picard_segments"]
        assert len(segments) == math.ceil(1.0 / manifest["rho"] - 1e-9) > 1
        for seg in segments:
            norms = seg["update_norms"]
            assert seg["iterations"] == len(norms) >= 1
            assert norms[-1] < 1e-10
            assert all(b / a <= seg["q"] + 0.1 for a, b in zip(norms, norms[1:]))
        assert set(manifest["checksums"]) == {"trajectory.csv", "bounds.csv"}
        run("simulate", build_config(small_sim_doc(), environ={}), tmp_path / "euler")
        assert "picard_segments" not in json.loads((tmp_path / "euler" / "manifest.json").read_text())

    def test_manifest_constants_match_fresh_computation(self, tmp_path):
        cfg = build_config(small_sim_doc(), environ={})
        out = tmp_path / "sim"
        run("simulate", cfg, out)
        manifest = json.loads((out / "manifest.json").read_text())
        echoed = build_config(manifest["config"], environ={})
        op = build_operator(echoed.model.kernel, echoed.grid, echoed.quadrature)
        fresh = asdict(compute_constants(echoed.model, op))
        assert manifest["constants"] == fresh

    def test_2d_simulate_within_row_sum_bound(self, tmp_path):
        # a 41^2 exponential run that crossed the bound made from the lag-table
        # lower sum of Cw (sup 4.520477 against 4.519001); the row-sum norm of
        # the operator it integrates gives the bound 2 * 3.1550
        doc = {"grid": {"bounds": [[-10, 10], [-10, 10]], "nodes": [41, 41]},
               "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 1.5},
               "initial": {"kind": "gaussian-bump",
                           "params": {"amplitude": 0.375126, "center": [-0.565793, 1.879164],
                                      "width": 2.301631}}}
        out = tmp_path / "sim2d"
        assert run("simulate", build_config(doc, environ={}), out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["constants"]["method"] == "row-sum"
        assert manifest["bound_report"]["sup_observed"] > 4.52
        assert manifest["bound_report"]["within_bound"] is True

    def test_rerun_identical_checksums(self, tmp_path):
        doc = small_sim_doc()
        sums = []
        for name in ("a", "b"):
            cfg = build_config(doc, environ={})
            out = tmp_path / name
            assert run("simulate", cfg, out) == 0
            sums.append(json.loads((out / "manifest.json").read_text())["checksums"])
        assert sums[0] == sums[1]

    def test_checksums_independent_of_blas_threads(self, tmp_path):
        doc = {**small_sim_doc(t_end=0.5), "grid": {"nodes": [201]}}
        manifests = manifests_at_blas_threads(tmp_path, "simulate", doc, ("1", "2"))
        sums = [manifest["checksums"] for manifest in manifests]
        assert sums[0] == sums[1]

    def test_gainfield_checksums_independent_of_blas_threads_and_reruns(self, tmp_path):
        doc = {"grid": {"nodes": [201]}, "gainfield": {"crosscheck_nodes": 801}}
        sums = []
        for manifest in manifests_at_blas_threads(tmp_path, "gainfield", doc, ("1", "2", "1")):
            assert set(manifest["mercer"]) == MERCER_KEYS
            sums.append({name: manifest["checksums"][name]
                         for name in ("eigs.csv", "phi_pre.csv", "crosscheck.json")})
        assert sums[0] == sums[1] == sums[2]

    def test_2d_checksums_independent_of_blas_threads_and_reruns(self, tmp_path):
        doc = {
            "grid": {"bounds": [[-5.0, 5.0], [-5.0, 5.0]], "nodes": [21, 21]},
            "model": {"kernel": {"kind": "mexican-hat", "params": {"scale": 1.5}}, "gamma": 0.5},
            "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 0.5},
            "initial": {"kind": "gaussian-bump",
                        "params": {"amplitude": 0.5, "center": [-1.0, 0.5], "width": 1.5}},
        }
        sums = []
        for manifest in manifests_at_blas_threads(tmp_path, "simulate", doc, ("1", "2", "1")):
            assert manifest["constants"]["method"] == "row-sum"
            sums.append(manifest["checksums"])
        assert sums[0] == sums[1] == sums[2]

    def test_large_2d_checksums_independent_of_blas_threads(self, tmp_path):
        # r = 37 basis functions on 61 x 61 nodes: one product L^-1 g(s - X)
        # of r^2 n multiply-adds would go to OpenBLAS's threaded GEMM
        doc = {"grid": {"bounds": [[-10.0, 10.0], [-10.0, 10.0]], "nodes": [61, 61]},
               "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 3.0}}
        manifests = manifests_at_blas_threads(tmp_path, "simulate", doc, ("1", "2"))
        sums = [manifest["checksums"] for manifest in manifests]
        assert sums[0] == sums[1]

    def test_tabulated_checksums_independent_of_blas_threads_and_reruns(self, tmp_path):
        # J's r + 1 dense products go through einsum: a GEMM (v @ W.T) here
        # rounds differently at 1 and 2 BLAS threads on this size
        n = 401
        x = np.linspace(-10.0, 10.0, n)
        table = np.exp(-np.abs(np.subtract.outer(x, x))) * np.random.default_rng(7).uniform(
            0.5, 1.5, size=(n, n))
        doc = {"grid": {"nodes": [n]},
               "model": {"kernel": {"kind": "tabulated",
                                    "params": {"matrix": table.tolist(), "nodes": x.tolist()}},
                         "gamma": 1.0},
               "solver": {"dt": 0.1, "t_end": 2.0}}
        manifests = manifests_at_blas_threads(tmp_path, "simulate", doc, ("1", "2", "1"))
        sums = [manifest["checksums"] for manifest in manifests]
        assert sums[0] == sums[1] == sums[2]

    @pytest.mark.parametrize("command, doc", [
        ("simulate", {"grid": {"bounds": [[-5.0, 5.0]], "nodes": [64], "boundary": "periodic"},
                      "model": {"gamma": 0.0},
                      "solver": {"method": "picard", "dt": 0.05, "t_end": 0.5}}),
        ("simulate", {"grid": {"bounds": [[-3.0, 2.0], [-1.0, 4.0]], "nodes": [9, 11]},
                      "model": {"gamma": 0.5},
                      "solver": {"method": "exp-euler", "dt": 0.1, "t_end": 0.5},
                      "initial": {"kind": "gaussian-bump",
                                  "params": {"amplitude": 0.5, "center": [-0.5, 1.0],
                                             "width": 1.0}}}),
        ("stationary", {"grid": {"nodes": [101]}, "model": {"gamma": 0.4}}),
        ("schrodinger", {"schrodinger": {"nodes": 301, "n_states": 2}}),
    ])
    def test_node_csvs_equal_per_cell_rows(self, tmp_path, command, doc):
        cfg = build_config(doc, environ={})
        out = tmp_path / "run"
        assert run(command, cfg, out) == 0
        coords = ["x"] if cfg.grid.dimension == 1 else ["x", "y"]
        op = build_operator(cfg.model.kernel, cfg.grid, cfg.quadrature)
        pts = cfg.grid.points
        if command == "simulate":
            name, header = "trajectory.csv", ["t", "node_index"] + coords + ["u"]
            traj = solve_global(cfg.model, op, initial_state(cfg), cfg.solver,
                                compute_constants(cfg.model, op))
            rows = [[traj.times[n], i] + list(pts[i]) + [traj.values[n, i]]
                    for n in range(len(traj)) for i in range(cfg.grid.n_total)]
        elif command == "stationary":
            s = cfg.document["stationary"]
            u_inf = find_stationary_fp(cfg.model, op, initial_state(cfg),
                                       compute_constants(cfg.model, op), damping=s["damping"],
                                       tol=s["tol"], max_iter=s["max_iter"]).u_inf
            name, header = "u_inf.csv", coords + ["u"]
            rows = [list(pts[i]) + [u_inf[i]] for i in range(cfg.grid.n_total)]
        else:
            s = cfg.document["schrodinger"]
            grid = Grid(bounds=[(-s["box"], s["box"])], npts=[s["nodes"]])
            pot = square_well(grid.axis_nodes[0], s["half_width"], s["height"])
            ground = schrodinger_fd(pot, grid, n_states=s["n_states"]).functions[:, 0]
            name, header = "ground_state.csv", ["x", "u"]
            rows = [list(grid.points[i]) + [ground[i]] for i in range(grid.n_total)]
        write_csv(tmp_path / name, header, rows)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_schrodinger_computes_no_constants(self, tmp_path, monkeypatch):
        import neuralfield.cli as cli

        def refuse(*args):
            raise AssertionError("operator or constants computed")

        monkeypatch.setattr(cli, "compute_constants", refuse)
        monkeypatch.setattr(cli, "build_operator", refuse)
        doc = {"grid": {"bounds": [[-5.0, 5.0], [-5.0, 5.0]], "nodes": [31, 31]},
               "model": {"kernel": {"kind": "mexican-hat"}},
               "schrodinger": {"nodes": 201, "n_states": 1}}
        out = tmp_path / "sch"
        assert run("schrodinger", build_config(doc, environ={}), out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "error" not in manifest
        assert not {"constants", "rho", "q"} & set(manifest)

    def test_stationary_and_gainfield(self, tmp_path):
        doc = {
            "grid": {"nodes": [101]},
            "model": {"gamma": 0.4},
            "stationary": {"tol": 1e-10},
            "gainfield": {"crosscheck_nodes": 801, "n_eigs": 5},
        }
        cfg = build_config(doc, environ={})
        out1 = tmp_path / "stat"
        assert run("stationary", cfg, out1) == 0
        stat = json.loads((out1 / "stationary.json").read_text())
        assert stat["converged"] and stat["residual"] < 1e-10

        out2 = tmp_path / "gf"
        assert run("gainfield", cfg, out2) == 0
        eigs = (out2 / "eigs.csv").read_text().splitlines()
        assert eigs[0] == "i,sigma_i"
        assert len(eigs) == 6
        cross = json.loads((out2 / "crosscheck.json").read_text())
        assert cross["E"] == pytest.approx(cross["k2"] - 1.0)
        assert cross["residual_l2"] < 1e-2
        # the manifest, not a checksummed artifact, counts the solve's J calls
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["stationary_iterations"] == stat["iterations"]

    def test_simulate_2d_grid(self, tmp_path):
        doc = {
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "nodes": [9, 9]},
            "solver": {"dt": 0.1, "t_end": 0.5},
            "model": {"gamma": 0.5},
            "initial": {"kind": "gaussian-bump",
                        "params": {"amplitude": 0.5, "center": 0.5, "width": 0.3}},
        }
        cfg = build_config(doc, environ={})
        out = tmp_path / "sim2d"
        assert run("simulate", cfg, out) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,node_index,x,y,u"
        report = json.loads((out / "manifest.json").read_text())["bound_report"]
        assert report["within_bound"]

    def test_schrodinger_standalone(self, tmp_path):
        doc = {"schrodinger": {"nodes": 1001, "n_states": 2, "half_width": 1.5, "height": 3.0,
                               "lambda": 1.0}}
        out = tmp_path / "sch"
        assert run("schrodinger", build_config(doc, environ={}), out) == 0
        payload = json.loads((out / "schrodinger.json").read_text())
        assert payload["half_width"] == 1.5 and payload["height"] == 3.0
        assert payload["lambda"] == 1.0
        assert len(payload["energies"]) >= 1

    def test_study_contraction_verdict(self, tmp_path):
        doc = {"grid": {"nodes": [101]},
               "study": {"contraction": {"n_pairs": 40, "rho": 0.1}}}
        cfg = build_config(doc, environ={})
        out = tmp_path / "study"
        assert run("study", cfg, out, study_name="contraction") == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["pass"] is True
        assert verdict["max_ratio"] <= verdict["q"] + 0.01
        assert (out / "contraction.csv").exists()

    def test_numerical_failure_still_writes_manifest(self, tmp_path):
        doc = {
            "model": {
                "kernel": {"kind": "exponential", "params": {"amplitude": 60.0, "decay": 0.2}},
                "firing": {"kind": "linear", "params": {}},
                "mode": "gain-field",
                "gamma": 0.0,
            },
            "grid": {"nodes": [51], "bounds": [[-5.0, 5.0]]},
            "solver": {"method": "rk4", "dt": 0.5, "t_end": 200.0},
        }
        cfg = build_config(doc, environ={})
        out = tmp_path / "boom"
        assert run("simulate", cfg, out) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "NumericalInstabilityError"
        assert (out / ".lock").exists() is False

    def test_noncontractive_study_segment_is_a_numerical_failure(self, tmp_path):
        doc = {"grid": {"nodes": [101]}, "study": {"dependence": {"rho": 50.0}}}
        out = tmp_path / "dep"
        assert run("study", build_config(doc, environ={}), out, study_name="dependence") == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "NonContractiveError"

    def test_gainfield_manifest_records_the_condensed_crosscheck(self, tmp_path):
        # the depth is an eigenvalue of the well's 101-row core, not of all
        # 1,999 interior rows of the default cross-check grid
        out = tmp_path / "gf"
        assert run("gainfield", build_config({}, environ={}), out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["crosscheck_condensed"] == {"core_nodes": 101, "exterior_nodes": [949, 949]}
        cross = json.loads((out / "crosscheck.json").read_text())
        assert set(cross) == {"lambda", "V0", "k2", "E", "residual_l2", "rayleigh_quotient"}

    def test_tabulated_manifest_echoes_digests_of_the_tables(self, tmp_path):
        n = 401
        x = np.linspace(-10.0, 10.0, n)
        table = np.exp(-np.abs(np.subtract.outer(x, x)))
        doc = {"grid": {"nodes": [n]},
               "model": {"kernel": {"kind": "tabulated",
                                    "params": {"matrix": table.tolist(), "nodes": x.tolist()}}},
               "solver": {"dt": 0.1, "t_end": 0.5}}
        out = tmp_path / "sim"
        assert run("simulate", build_config(doc, environ={}), out) == 0
        assert (out / "manifest.json").stat().st_size < 100_000
        params = json.loads((out / "manifest.json").read_text())["config"]["model"]["kernel"]["params"]
        assert params == {
            "matrix": {"shape": [n, n], "sha256": hashlib.sha256(table.tobytes()).hexdigest()},
            "nodes": {"shape": [n], "sha256": hashlib.sha256(x.tobytes()).hexdigest()}}

    def test_crosscheck_box_narrower_than_the_well_is_a_numerical_failure(self, tmp_path):
        # no node lies outside the well, so no depth in the bracket binds a state
        doc = {"grid": {"nodes": [101]},
               "gainfield": {"crosscheck_box": 0.5, "half_width": 1.0, "crosscheck_nodes": 101}}
        out = tmp_path / "gf"
        assert run("gainfield", build_config(doc, environ={}), out) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "NoBoundStateError"
        # a failed command writes no artifact, though its spectrum was computed
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]
        assert manifest["checksums"] == {}

    def test_manifest_lists_only_what_its_run_wrote(self, tmp_path):
        # a reused directory keeps the older files, but the manifest vouches
        # only for the artifacts of its own run
        cfg = build_config(small_sim_doc(), environ={})
        out = tmp_path / "shared"
        assert run("simulate", cfg, out) == 0
        assert run("stationary", cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["checksums"]) == {"u_inf.csv", "stationary.json"}
        assert (out / "trajectory.csv").exists()
        for name, digest in manifest["checksums"].items():
            assert sha256_file(out / name) == digest

    @pytest.mark.parametrize("command", ["stationary", "gainfield"])
    def test_fixed_point_on_periodic_grid_is_a_config_error(self, tmp_path, command):
        doc = {"grid": {"nodes": [64], "boundary": "periodic"}}
        out = tmp_path / command
        assert run(command, build_config(doc, environ={}), out) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "SchemaError"
        assert "compact" in manifest["error"]["violations"][0]

    @pytest.mark.parametrize("bug", [TypeError, ValueError, RuntimeError])
    def test_unexpected_error_propagates_and_unlocks(self, tmp_path, monkeypatch, bug):
        import neuralfield.cli as cli

        def broken(cfg, op, constants):
            raise bug("a bug, not a numerical failure")

        monkeypatch.setattr(cli, "cmd_simulate", broken)
        out = tmp_path / "bug"
        with pytest.raises(bug, match="a bug"):
            run("simulate", build_config(small_sim_doc(), environ={}), out)
        assert not (out / ".lock").exists()

    @pytest.mark.parametrize("argv, key", [
        (["--well", "nan,2"], "schrodinger.half_width"),
        (["--well", "0,2"], "schrodinger.half_width"),
        (["--well", "1,-2"], "schrodinger.height"),
        (["--well", "1,inf"], "schrodinger.height"),
        (["--lambda", "0"], "schrodinger.lambda"),
        (["--lambda", "nan"], "schrodinger.lambda"),
    ])
    def test_schrodinger_options_meet_the_schema(self, tmp_path, capsys, argv, key):
        # a flag is a config key: a bad value is refused before the run starts
        out = tmp_path / "sch"
        assert main(["schrodinger", "--out", str(out), *argv]) == 2
        assert f"config error: {key}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("well", ["1", "1,2,3", "a,b", ""])
    def test_malformed_well_is_a_config_error(self, tmp_path, capsys, well):
        out = tmp_path / "sch"
        assert main(["schrodinger", "--out", str(out), "--well", well]) == 2
        assert "config error: --well: expected 'half_width,height'" in capsys.readouterr().err
        assert not out.exists()


class TestMainEntry:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, small_sim_doc())
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_reports_all_errors(self, tmp_path, capsys):
        path = write_config(tmp_path, {"model": {"gamma": -2}, "junk": 1})
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "model.gamma" in err and "junk" in err

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_gainfield_sign_is_an_unknown_key(self, tmp_path, capsys, sign):
        # the learned kernel is 1 + gamma g; the key that flipped it is gone
        path = write_config(tmp_path, {"gainfield": {"sign": sign}})
        assert main(["gainfield", "--config", path, "--out", str(tmp_path / "gf")]) == 2
        assert "gainfield.sign: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "gf" / "eigs.csv").exists()

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_out_is_config_error(self, tmp_path):
        path = write_config(tmp_path, small_sim_doc())
        assert main(["simulate", "--config", path]) == 2

    def test_constants_prints(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "kernel_l1_sup" in out and "q:" in out

    def test_constants_writes_json_with_out(self, tmp_path):
        out = tmp_path / "c"
        assert main(["constants", "--out", str(out)]) == 0
        payload = json.loads((out / "constants.json").read_text())
        assert payload["q"] < 1.0
        assert payload["constants"]["firing_lipschitz"] == 0.25

    @pytest.mark.parametrize("firing, lipschitz", [
        ({"kind": "sigmoid", "params": {"slope": -1.0, "threshold": 0.0}}, 0.25),
        ({"kind": "scaled-arctan", "params": {"scale": -2.0}}, 2.0 / math.pi),
    ])
    def test_decreasing_firing_runs(self, tmp_path, capsys, firing, lipschitz):
        # a bounded, C^1, decreasing f passes validate, so it must run too
        doc = small_sim_doc()
        doc["model"]["firing"] = firing
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 0
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim")]) == 0
        assert main(["constants", "--config", path, "--out", str(tmp_path / "c")]) == 0
        for report in (tmp_path / "sim" / "manifest.json", tmp_path / "c" / "constants.json"):
            constants = json.loads(report.read_text())["constants"]
            assert constants["firing_lipschitz"] == pytest.approx(lipschitz, rel=1e-15)

    def test_only_lock_contention_exits_1_from_main(self, tmp_path, monkeypatch, capsys):
        import neuralfield.cli as cli

        out = tmp_path / "o"
        with lock_holder(out):
            assert main(["constants", "--out", str(out)]) == 1

        def broken(cfg, constants):
            raise RuntimeError("a bug, not lock contention")

        monkeypatch.setattr(cli, "cmd_constants", broken)
        capsys.readouterr()
        assert main(["constants", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: a bug, not lock contention" in err
        assert not (out / ".lock").exists()

    def test_unknown_study_name_exits_config_error(self, tmp_path):
        cfg = build_config({}, environ={})
        assert run("study", cfg, tmp_path / "s", study_name="bogus") == 2

    def test_plasticity_study_refuses_picard(self, tmp_path, capsys):
        # picard picks its segment length per gamma, so the gamma runs and the
        # gamma = 0 reference would not share a time lattice to compare on
        doc = {"grid": {"nodes": [101]},
               "study": {"plasticity": {"method": "picard", "t_end": 0.5}}}
        out = tmp_path / "s"
        code = main(["study", "plasticity-limit", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: study.plasticity.method: must be one of ['exp-euler', 'rk4']" in err
        assert not out.exists()

    def test_seed_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, small_sim_doc())
        out = tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out), "--seed", "777"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 777
        assert manifest["config"]["seed"] == 777

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        from neuralfield import cli

        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            if kwargs.get("prog") == "neuralfield":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli._build_parser.cache_clear()
        try:
            outcomes = []
            for _ in range(2):
                codes = [main(["constants", "--seed", "-1"])]
                with pytest.raises(SystemExit) as exc:
                    main(["simulate", "--bogus"])
                codes.append(exc.value.code)
                outcomes.append((codes, capsys.readouterr()))
        finally:
            cli._build_parser.cache_clear()
        assert len(built) == 1
        assert outcomes[0] == outcomes[1]
        codes, (out, err) = outcomes[0]
        assert codes == [2, 2] and out == ""
        assert "config error: seed: must be a nonnegative integer" in err
        assert "unrecognized arguments: --bogus" in err

    def test_negative_seed_flag_exits_2(self, capsys):
        assert main(["constants", "--seed", "-1"]) == 2
        assert "config error: seed: must be a nonnegative integer" in capsys.readouterr().err

    def test_manifest_echoes_the_schrodinger_flags(self, tmp_path):
        doc = {"schrodinger": {"nodes": 401, "n_states": 2}}
        out = tmp_path / "sch"
        assert main(["schrodinger", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--well", "1.5,3", "--lambda", "2"]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]["schrodinger"]
        payload = json.loads((out / "schrodinger.json").read_text())
        assert (echo["half_width"], echo["height"], echo["lambda"]) == (1.5, 3.0, 2.0)
        assert (payload["half_width"], payload["height"], payload["lambda"]) == (1.5, 3.0, 2.0)

    def test_manifest_echoes_the_method_flag(self, tmp_path):
        doc = {"grid": {"nodes": [101]}, "model": {"gamma": 0.4}, "stationary": {"t_max": 50.0}}
        out = tmp_path / "stat"
        assert main(["stationary", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--method", "flow"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stationary"]["method"] == "flow"
        assert manifest["stationary"]["method"] == "flow"

    def test_flags_win_over_environment_overrides(self, tmp_path, monkeypatch):
        # defaults < config file < NF_ variables < flags, in the run and in its echo
        monkeypatch.setenv("NF_SEED", "3")
        monkeypatch.setenv("NF_SCHRODINGER_LAMBDA", "3")
        monkeypatch.setenv("NF_SCHRODINGER_HEIGHT", "4")
        doc = {"seed": 1, "schrodinger": {"nodes": 401, "n_states": 1, "height": 5.0}}
        out = tmp_path / "sch"
        assert main(["schrodinger", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--seed", "5", "--lambda", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        payload = json.loads((out / "schrodinger.json").read_text())
        assert manifest["seed"] == manifest["config"]["seed"] == 5
        assert manifest["config"]["schrodinger"]["lambda"] == payload["lambda"] == 2.0
        # no flag names the height, so NF_ wins over the file
        assert manifest["config"]["schrodinger"]["height"] == payload["height"] == 4.0

    def test_console_entry_point(self, tmp_path):
        # module execution path used by scripts and docs
        path = write_config(tmp_path, small_sim_doc(t_end=0.5))
        result = subprocess.run(
            [sys.executable, "-m", "neuralfield.cli", "simulate",
             "--config", path, "--out", str(tmp_path / "cli-run")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "cli-run" / "manifest.json").exists()
