"""The four benchmark workloads.

Each workload makes its inputs from the run seed (set-up), runs one item
(one pipeline pass on one input) through the package's public API, and
checks the item's outputs with perfbench.checks. During the run each
item's output is reduced to a key, which must equal the key of the first
output on the same input. The first output is kept and validated in full
after the run, once the run's peak memory has been read, so the
benchmark's own checking does not count toward it. Sizes live in SIZES
so the self-test can run every workload at a toy size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

from checks import (
    agreement,
    check_cut_metrics,
    check_fc_fit,
    check_partition,
    check_profile,
    combinatorial_laplacian,
    fc_model_matrix,
    normalized_laplacian,
    require,
)

# Item times differ by up to 2x between graphs of one SBM family, so the
# graph workloads cycle through several graphs per run and a run's
# figures average over them.
SIZES = {
    "cluster-linear": {"blocks": 8, "per_block": 24, "p_in": 0.3, "p_out": 0.01, "graphs": 56},
    "p-cluster": {"blocks": 2, "per_block": 32, "p_in": 0.9, "p_out": 0.05, "p": 1.5, "graphs": 48},
    "fc-fit": {"blocks": 8, "per_block": 100, "p_in": 0.3, "p_out": 0.01,
               "beta": 1.3, "scale": 2.0, "offset": 0.1, "noise": 0.01},
    "cli-io": {"blocks": 16, "per_block": 64, "p_in": 0.3, "p_out": 0.005},
}

HIERARCHY_LEVELS = ("k=16,method=kway-embedding,dim=4", "k=4")


def subseed(seed: int, index: int) -> int:
    """Independent graph seed number `index` of run seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def planted_blocks(labels) -> np.ndarray:
    # sbm_generate labels node i of block b as "b<b>n<i>"
    return np.array([int(label[1:].split("n", 1)[0]) for label in labels], dtype=np.int64)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


class Case:
    """One generated input, plus what the benchmark learned from its first output."""

    def __init__(self, index: int, graph, **extra):
        self.index = index
        self.graph = graph
        self.n = graph.n
        self.m = graph.n_edges
        self.first_key = None
        self.first_output = None
        self.facts: dict = {}
        self.error = None
        self.__dict__.update(extra)


class Workload:
    name = ""
    min_items = 1

    def __init__(self, sa, size: dict, workdir: str):
        self.sa = sa
        self.size = size
        self.workdir = workdir

    def sbm(self, seed: int, index: int):
        s = self.size
        return self.sa.sbm_generate(s["blocks"], s["per_block"], s["p_in"], s["p_out"], subseed(seed, index))

    def make_inputs(self, seed: int) -> list[Case]:
        raise NotImplementedError

    def run_item(self, case: Case):
        raise NotImplementedError

    def key(self, case: Case, output):
        """A comparable summary of the whole output; may raise CheckFailed."""
        return output

    def validate(self, case: Case, output) -> dict:
        """Raise CheckFailed on a wrong output; return facts about it."""
        raise NotImplementedError

    def keep(self, case: Case, output) -> None:
        """During the run: keep the input's first output, compare later ones with it."""
        key = self.key(case, output)
        if case.first_key is None:
            case.first_key, case.first_output = key, output
        require(key == case.first_key, "repeated item on the same input gave a different output")

    def check(self, case: Case) -> None:
        """After the run: validate the input's first output; a failure is kept in case.error."""
        if case.first_key is None:
            return
        try:
            case.facts = self.validate(case, case.first_output)
        except Exception as exc:  # CheckFailed, or an output of the wrong shape
            case.error = f"{type(exc).__name__}: {exc}"
        case.first_output = None


class ClusterLinear(Workload):
    name = "cluster-linear"

    def make_inputs(self, seed):
        return [Case(i, self.sbm(seed, i)) for i in range(self.size["graphs"])]

    def run_item(self, case):
        g = case.graph
        part = self.sa.recursive_bipartition(g, self.size["blocks"])
        return part, self.sa.cut_metrics(g, part), self.sa.connectivity_profile(g, part)

    def validate(self, case, output):
        part, metrics, profile = output
        k = self.size["blocks"]
        assign = check_partition(case.graph, part, k)
        check_cut_metrics(case.graph, assign, k, metrics)
        check_profile(case.graph, assign, k, profile)
        return {"agreement": agreement(assign, planted_blocks(case.graph.labels))}


class PCluster(Workload):
    name = "p-cluster"

    def make_inputs(self, seed):
        return [Case(i, self.sbm(seed, i)) for i in range(self.size["graphs"])]

    def run_item(self, case):
        k = self.size["blocks"]
        return self.sa.p_recursive_bipartition(case.graph, k, self.sa.PLaplacianParams(p=self.size["p"]))

    def validate(self, case, part):
        assign = check_partition(case.graph, part, self.size["blocks"])
        return {"agreement": agreement(assign, planted_blocks(case.graph.labels))}


class FcFit(Workload):
    name = "fc-fit"

    def make_inputs(self, seed):
        s = self.size
        g = self.sbm(seed, 0)
        truth = self.sa.FcModel(beta=s["beta"], scale=s["scale"], offset=s["offset"])
        clean = self.sa.predict_fc(g, truth)
        z = np.random.default_rng(subseed(seed, 1)).normal(0.0, s["noise"], clean.shape)
        observed = clean + np.triu(z) + np.triu(z, 1).T
        return [Case(0, g, observed=observed)]

    def run_item(self, case):
        model, error = self.sa.fit_fc(case.graph, case.observed)
        predicted = self.sa.predict_fc(case.graph, model)
        return model, error, predicted, self.sa.spectra_similarity(case.observed, predicted)

    def key(self, case, output):
        model, error, predicted, similarity = output
        return model, error, digest(np.ascontiguousarray(predicted).tobytes()), similarity

    def validate(self, case, output):
        s = self.size
        L = normalized_laplacian(case.graph)
        truth = fc_model_matrix(L, s["beta"], s["scale"], s["offset"])
        truth_error = float(np.linalg.norm(truth - case.observed))
        return {"fit_rel_error": check_fc_fit(L, case.observed, truth_error, *output)}


class CliIo(Workload):
    name = "cli-io"
    min_items = 2  # every call is made at least twice, to compare the bytes

    def make_inputs(self, seed):
        g = self.sbm(seed, 0)
        path = os.path.join(self.workdir, "graph.tsv")
        with open(path, "w") as f:
            f.writelines(f"{g.labels[i]}\t{g.labels[j]}\t{w!r}\n" for i, j, w in g.edges)
        return [Case(0, g, tsv=path)]

    def paths(self) -> dict[str, str]:
        files = ("spectrum.json", "spectrum.scree.csv", "hierarchy.json", "hierarchy.dot")
        return {name: os.path.join(self.workdir, name) for name in files}

    def run_item(self, case):
        paths = self.paths()
        calls = [
            ["spectrum", "--input", case.tsv, "--output", paths["spectrum.json"]],
            ["hierarchy", "--input", case.tsv, "--output", paths["hierarchy.json"], "--dot"]
            + [arg for level in HIERARCHY_LEVELS for arg in ("--level", level)],
        ]
        results = []
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.sa.cli.main(argv)
            results.append((argv[0], code, out.getvalue(), err.getvalue()))
        return results

    def key(self, case, results):
        for command, code, out, err in results:
            require(code == 0, f"{command} exited {code}: {err.strip()}")
            require(err == "" and out == "", f"{command} wrote to stdout or stderr")
        return {name: file_digest(path) for name, path in self.paths().items()}

    def validate(self, case, results):
        n = case.n
        paths = self.paths()
        # the files on disk are the last item's; they must be the first item's bytes
        require(self.key(case, results) == case.first_key, "output files changed after the run")
        # node order of the parsed file: labels by first appearance
        order = list(dict.fromkeys(v for i, j, _ in case.graph.edges for v in (i, j)))
        L = combinatorial_laplacian(case.graph)[np.ix_(order, order)]
        eigenvalues = np.linalg.eigvalsh(L)

        with open(paths["spectrum.json"]) as f:
            spectrum = json.load(f)
        vals = np.array(spectrum["eigenvalues"])
        vecs = np.array(spectrum["eigenvectors"]).T
        require(vals.shape == (n,) and vecs.shape == (n, n), "spectrum report has the wrong shape")
        require(np.abs(vals - eigenvalues).max() <= 1e-9 * eigenvalues.max(), "eigenvalues differ from eigvalsh")
        residual = np.abs(L @ vecs - vecs * vals).max()
        require(residual <= 1e-8 * eigenvalues.max(), f"eigenpair residual {residual:.2e}")
        with open(paths["spectrum.scree.csv"]) as f:
            require(sum(1 for line in f if line.strip()) == n, "scree CSV has the wrong number of rows")

        with open(paths["hierarchy.json"]) as f:
            levels = json.load(f)["levels"]
        ks = [int(level.split(",")[0][2:]) for level in HIERARCHY_LEVELS]
        require([lv["k"] for lv in levels] == ks, "hierarchy levels have the wrong cluster counts")
        for lv, k, size in zip(levels, ks, [n] + ks[:-1]):
            a = np.asarray(lv["assignment"], dtype=np.int64)
            require(a.shape == (size,) and set(a.tolist()) == set(range(k)), "hierarchy assignment is malformed")
        with open(paths["hierarchy.dot"]) as f:
            dot_edges = sum(1 for line in f if " -- " in line)

        level0 = np.asarray(levels[0]["assignment"], dtype=np.int64)
        planted = planted_blocks([case.graph.labels[v] for v in order])
        # numbers fileio.format_float rendered: eigenvalues, eigenvectors
        # and scree rows, then per level 4 profile fields per cluster and
        # one weight per quotient edge, in the JSON and again in the DOT
        floats = 2 * n + n * n + sum(4 * lv["k"] + len(lv["quotient_edges"]) for lv in levels) + dot_edges
        return {
            "agreement": agreement(level0, planted),
            "bytes_written": sum(os.path.getsize(path) for path in paths.values()),
            "bytes_read": len(results) * os.path.getsize(case.tsv),
            "floats_formatted": floats,
        }


WORKLOADS = {w.name: w for w in (ClusterLinear, PCluster, FcFit, CliIo)}
