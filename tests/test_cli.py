"""End-to-end command-line runs: outputs, error channels, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import spectral_abstraction as sa
from spectral_abstraction.cli import main
from spectral_abstraction.fileio import matrix_csv, parse_edge_list_tsv, read_fc_matrix
from spectral_abstraction.structfunc import FcModel, predict_fc

BRIDGED_TSV = (
    "u0\tu1\t1\n"
    "u0\tu2\t1\n"
    "u1\tu2\t1\n"
    "u2\tw0\t1\n"
    "w0\tw1\t1\n"
    "w0\tw2\t1\n"
    "w1\tw2\t1\n"
)


@pytest.fixture()
def bridged_file(tmp_path):
    f = tmp_path / "bridged.tsv"
    f.write_text(BRIDGED_TSV)
    return f


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestSpectrumCommand:
    def test_writes_report_and_scree(self, bridged_file, tmp_path):
        out = tmp_path / "spec.json"
        rc = run_cli("spectrum", "--input", str(bridged_file), "--output", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        vals = payload["eigenvalues"]
        assert len(vals) == 6
        assert vals == sorted(vals)
        assert abs(vals[0]) < 1e-9
        scree = (tmp_path / "spec.scree.csv").read_text().strip().split("\n")
        assert len(scree) == 6
        assert scree[0].split(",")[0] == "1"

    def test_normalized_kind_flag(self, bridged_file, tmp_path):
        out = tmp_path / "norm.json"
        rc = run_cli(
            "spectrum",
            "--input",
            str(bridged_file),
            "--output",
            str(out),
            "--laplacian",
            "normalized",
        )
        assert rc == 0
        vals = json.loads(out.read_text())["eigenvalues"]
        assert vals[-1] <= 2.0 + 1e-9


class TestBipartitionCommand:
    def test_bridged_report(self, bridged_file, tmp_path):
        out = tmp_path / "cut.json"
        rc = run_cli("bipartition", "--input", str(bridged_file), "--output", str(out))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["partition"]["assignment"] == [0, 0, 0, 1, 1, 1]
        assert payload["partition"]["labels"] == ["u0", "u1", "u2", "w0", "w1", "w2"]
        assert payload["cut_metrics"]["cut_weight"] == 1.0
        assert len(payload["connectivity_profile"]) == 2


class TestClusterCommand:
    def test_recursive_without_dims(self, bridged_file, tmp_path):
        out = tmp_path / "rec.json"
        rc = run_cli("cluster", "--input", str(bridged_file), "--output", str(out), "--k", "2")
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["partition"]["assignment"] == [0, 0, 0, 1, 1, 1]

    def test_kway_with_dims(self, bridged_file, tmp_path):
        out = tmp_path / "kway.json"
        rc = run_cli(
            "cluster",
            "--input",
            str(bridged_file),
            "--output",
            str(out),
            "--k",
            "2",
            "--dims",
            "1",
            "--metric",
            "manhattan",
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["partition"]["assignment"] == [0, 0, 0, 1, 1, 1]

    def test_seeds_change_nothing_on_a_clear_instance(self, bridged_file, tmp_path):
        texts = []
        for seed in ("0", "1", "99"):
            out = tmp_path / f"s{seed}.json"
            rc = run_cli(
                "cluster",
                "--input",
                str(bridged_file),
                "--output",
                str(out),
                "--k",
                "2",
                "--dims",
                "1",
                "--seed",
                seed,
            )
            assert rc == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize(
        "flag,value",
        [("--laplacian", "normalized"), ("--metric", "manhattan"), ("--q", "0.3"), ("--seed", "9")],
    )
    def test_kmeans_flag_without_dims_is_a_usage_error(self, bridged_file, tmp_path, capsys,
                                                       flag, value):
        out = tmp_path / "rec.json"
        rc = run_cli("cluster", "--input", str(bridged_file), "--output", str(out), "--k", "2",
                     flag, value)
        assert rc == 2
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "Usage"
        assert flag in err["detail"]

    def test_domain_error_exits_one_and_writes_nothing(self, bridged_file, tmp_path, capsys):
        out = tmp_path / "bad.json"
        rc = run_cli("cluster", "--input", str(bridged_file), "--output", str(out), "--k", "10")
        assert rc == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "KOutOfRange"
        assert "detail" in err


class TestPClusterCommand:
    def test_bridged_partition(self, bridged_file, tmp_path):
        out = tmp_path / "p.json"
        rc = run_cli(
            "p-cluster",
            "--input",
            str(bridged_file),
            "--output",
            str(out),
            "--k",
            "2",
            "--p",
            "1.2",
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["partition"]["assignment"] == [0, 0, 0, 1, 1, 1]

    def test_invalid_exponent_is_a_domain_error(self, bridged_file, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = run_cli(
            "p-cluster",
            "--input",
            str(bridged_file),
            "--output",
            str(out),
            "--k",
            "2",
            "--p",
            "3.0",
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ExponentOutOfRange"


class TestHierarchyCommand:
    def test_two_levels_with_dot(self, tmp_path):
        g = sa.sbm_generate(4, 6, 0.9, 0.05, seed=3)
        lines = [
            f"{g.labels[i]}\t{g.labels[j]}\t{w:g}" for i, j, w in g.edges
        ]
        f = tmp_path / "sbm.tsv"
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "h.json"
        rc = run_cli(
            "hierarchy",
            "--input",
            str(f),
            "--output",
            str(out),
            "--level",
            "k=4",
            "--level",
            "k=2,method=kway-embedding,dim=1",
            "--dot",
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["levels"]) == 2
        assert payload["levels"][0]["k"] == 4
        assert payload["levels"][1]["k"] == 2
        dot = (tmp_path / "h.dot").read_text()
        assert dot.count("graph level") == 2

    def test_malformed_level_spec_is_a_usage_error(self, bridged_file, tmp_path, capsys):
        out = tmp_path / "h.json"
        rc = run_cli(
            "hierarchy", "--input", str(bridged_file), "--output", str(out), "--level", "k"
        )
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "Usage"

    def test_nonmonotone_levels_exit_one(self, bridged_file, tmp_path, capsys):
        out = tmp_path / "h.json"
        rc = run_cli(
            "hierarchy",
            "--input",
            str(bridged_file),
            "--output",
            str(out),
            "--level",
            "k=2",
            "--level",
            "k=3",
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SpecMonotonicityViolation"


class TestFcCommands:
    def test_predict_then_fit_recovers_parameters(self, bridged_file, tmp_path):
        fc_out = tmp_path / "fc.csv"
        rc = run_cli(
            "predict-fc",
            "--input",
            str(bridged_file),
            "--output",
            str(fc_out),
            "--beta",
            "1.3",
            "--scale",
            "2.0",
            "--offset",
            "0.1",
        )
        assert rc == 0
        g = sa.graph_from_edges(
            ("u0", "u1", "u2", "w0", "w1", "w2"),
            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)],
        )
        expected = predict_fc(g, FcModel(beta=1.3, scale=2.0, offset=0.1))
        written = read_fc_matrix(str(fc_out))
        assert np.abs(written - expected).max() < 1e-15

        fit_out = tmp_path / "fit.json"
        rc = run_cli(
            "fit-fc",
            "--input",
            str(bridged_file),
            "--observed",
            str(fc_out),
            "--output",
            str(fit_out),
        )
        assert rc == 0
        report = json.loads(fit_out.read_text())
        assert abs(report["beta"] - 1.3) < 1e-3
        assert abs(report["scale"] - 2.0) < 1e-3
        assert abs(report["offset"] - 0.1) < 1e-3
        assert report["frobenius_error"] < 1e-8
        assert abs(report["spectra_similarity"] - 1.0) < 1e-6

    def test_asymmetric_observed_is_a_domain_error(self, bridged_file, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        m = np.eye(6)
        m[0, 1] = 1e-3
        obs.write_text(matrix_csv(m))
        out = tmp_path / "fit.json"
        rc = run_cli(
            "fit-fc",
            "--input",
            str(bridged_file),
            "--observed",
            str(obs),
            "--output",
            str(out),
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "AsymmetricMatrix"


class TestJacobianCommand:
    def test_report_contents(self, tmp_path):
        coup = tmp_path / "coup.csv"
        coup.write_text("0,2,0\n0,0,0.1\n0,0,0\n")
        mask = tmp_path / "mask.csv"
        mask.write_text("0,1,0\n0,0,1\n0,0,0\n")
        out = tmp_path / "jac.json"
        rc = run_cli(
            "jacobian-graph",
            "--input",
            str(coup),
            "--mask",
            str(mask),
            "--output",
            str(out),
            "--threshold",
            "0.5",
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["labels"] == ["x0", "x1", "x2"]
        assert payload["edges"] == [[0, 1, 1.0]]
        assert payload["largest_component"] == [0, 1]


class TestErrorChannels:
    def test_missing_required_flag_exits_two(self, capsys):
        rc = run_cli("cluster", "--input", "x.tsv", "--output", "y.json")
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "Usage"

    def test_unknown_command_exits_two(self, capsys):
        rc = run_cli("frobnicate")
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "Usage"

    def test_unreadable_input_exits_one_with_parse_code(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        rc = run_cli("spectrum", "--input", str(tmp_path / "no.tsv"), "--output", str(out))
        assert rc == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "Parse"

    def test_malformed_graph_names_the_line(self, tmp_path, capsys):
        f = tmp_path / "bad.tsv"
        f.write_text("a\tb\t1\nc\td\n")
        out = tmp_path / "o.json"
        rc = run_cli("spectrum", "--input", str(f), "--output", str(out))
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Parse"
        assert "line 2" in err["detail"]


class TestNoPartialOutput:
    def test_failed_second_file_removes_the_first(self, bridged_file, tmp_path, capsys):
        (tmp_path / "o.scree.csv").mkdir()
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "o.json"
        rc = run_cli("spectrum", "--input", str(bridged_file), "--output", str(out))
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "IO"
        assert not out.exists()
        assert sorted(tmp_path.iterdir()) == before


class TestSubprocessDeterminism:
    def test_spectrum_bytes_are_stable_across_runs(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text(BRIDGED_TSV)
        outputs = []
        for run in range(2):
            out = tmp_path / f"run{run}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "spectral_abstraction.cli",
                    "spectrum",
                    "--input",
                    str(f),
                    "--output",
                    str(out),
                ],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


INVALID_ARGUMENT_ARGVS = [
    pytest.param(["hierarchy", "--input", "{tsv}", "--output", "{out}", "--level", "k=2,method=bogus"],
                 id="level-method"),
    pytest.param(["hierarchy", "--input", "{tsv}", "--output", "{out}",
                  "--level", "k=2,method=kway-embedding,metric=bogus"], id="level-metric"),
    pytest.param(["jacobian-graph", "--input", "{coup}", "--mask", "{mask}", "--output", "{out}",
                  "--threshold", "-1"], id="negative-threshold"),
    pytest.param(["predict-fc", "--input", "{tsv}", "--output", "{out}",
                  "--beta", "-1", "--scale", "1", "--offset", "0"], id="negative-beta"),
    pytest.param(["spectrum", "--input", "{dup}", "--output", "{out}"], id="repeated-header-label"),
]


@pytest.mark.parametrize("argv", INVALID_ARGUMENT_ARGVS)
def test_invalid_argument_fails_with_one_json_line(argv, tmp_path, capsys):
    paths = {
        "tsv": tmp_path / "g.tsv",
        "coup": tmp_path / "coup.csv",
        "mask": tmp_path / "mask.csv",
        "dup": tmp_path / "dup.csv",
    }
    paths["tsv"].write_text(BRIDGED_TSV)
    paths["coup"].write_text("0,2,0\n0,0,0.1\n0,0,0\n")
    paths["mask"].write_text("0,1,0\n0,0,1\n0,0,0\n")
    paths["dup"].write_text("a,a,b\n0,1,0\n1,0,1\n0,1,0\n")
    inputs = sorted(tmp_path.iterdir())
    rc = main([arg.format(out=tmp_path / "out.json", **paths) for arg in argv])
    assert rc in (1, 2)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidArgument"
    assert sorted(tmp_path.iterdir()) == inputs


class TestNonFiniteInput:
    def test_nan_adjacency_cell_is_a_parse_error(self, tmp_path, capsys):
        f = tmp_path / "nan.csv"
        f.write_text("0,1,nan\n1,0,1\nnan,1,0\n")
        out = tmp_path / "o.json"
        rc = run_cli("spectrum", "--input", str(f), "--output", str(out))
        assert rc == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Parse"
        assert "(1, 3)" in err["detail"]

    def test_nan_observed_cell_is_a_parse_error(self, bridged_file, tmp_path, capsys):
        observed = tmp_path / "obs.csv"
        F = predict_fc(parse_edge_list_tsv(BRIDGED_TSV), FcModel(beta=1.0, scale=1.0, offset=0.0))
        F[2, 4] = F[4, 2] = np.nan
        observed.write_text(matrix_csv(F))
        out = tmp_path / "fit.json"
        rc = run_cli("fit-fc", "--input", str(bridged_file), "--observed", str(observed),
                     "--output", str(out))
        assert rc == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "Parse"
        assert "(3, 5)" in err["detail"]


@pytest.mark.parametrize(
    "level,field",
    [
        ("k=2,dim=2", "dim"),
        ("k=2,p=1.5", "p"),
        ("k=2,method=recursive-linear,metric=manhattan", "metric"),
        ("k=2,method=recursive-linear,q=0.3", "q"),
        ("k=2,method=recursive-p,dim=2", "dim"),
        ("k=2,method=recursive-p,metric=manhattan", "metric"),
        ("k=2,method=recursive-p,q=0.3", "q"),
        ("k=2,method=kway-embedding,p=1.5", "p"),
    ],
)
def test_level_field_its_method_ignores_is_a_usage_error(bridged_file, tmp_path, capsys,
                                                          level, field):
    out = tmp_path / "h.json"
    rc = run_cli("hierarchy", "--input", str(bridged_file), "--output", str(out), "--level", level)
    assert rc == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "Usage"
    assert field in err["detail"]


def test_hierarchy_seed_without_a_kway_level_is_a_usage_error(bridged_file, tmp_path, capsys):
    out = tmp_path / "h.json"
    rc = run_cli("hierarchy", "--input", str(bridged_file), "--output", str(out),
                 "--level", "k=2,method=recursive-p,p=1.5", "--seed", "3")
    assert rc == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "Usage"
    assert "--seed" in err["detail"]


def test_hierarchy_seed_zero_is_the_default(bridged_file, tmp_path):
    texts = []
    for extra in ((), ("--seed", "0")):
        out = tmp_path / f"h{len(extra)}.json"
        rc = run_cli("hierarchy", "--input", str(bridged_file), "--output", str(out),
                     "--level", "k=3,method=kway-embedding,dim=2,metric=manhattan,q=0.3",
                     "--level", "k=2", *extra)
        assert rc == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
