"""What importing the package loads."""

from __future__ import annotations

import os
import subprocess
import sys

import spectral_abstraction as sa

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sa.__file__)))


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize alone adds about 16 MB of resident memory
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, spectral_abstraction; print('scipy.optimize' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_does_not_load_scipy():
    # scipy.sparse and its linalg modules add about 30 MB; they load on the
    # first Lanczos call, for a graph above DENSE_SOLVER_MAX_N nodes
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, spectral_abstraction, spectral_abstraction.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_does_not_load_the_float_kernel():
    # fileio's whole-array float kernel, and its tables, load on the first array written
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, spectral_abstraction, spectral_abstraction.cli; "
            "print('spectral_abstraction._floattext' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_recursive_splits_of_a_connected_graph_do_not_load_scipy_sparse():
    # lambda_2 > 0 proves the graph connected, so no components pass runs; the
    # subset driver runs from the compiled LAPACK module, loaded without scipy.linalg
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, spectral_abstraction as sa; "
            "from spectral_abstraction import spectral; "
            "g = sa.sbm_generate(4, 8, 0.9, 0.1, seed=2); "
            "assert sa.recursive_bipartition(g, 4).k == 4; "
            "assert sa.p_recursive_bipartition(g, 3, sa.PLaplacianParams(p=1.5)).k == 3; "
            "print('scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules, "
            "spectral._lapack.cache_info().currsize)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False 1"


def test_the_lapack_loader_gives_scipy_linalg_lapacks_bytes():
    # the loader's dsyevr, before and after scipy.linalg.lapack is imported, against that module's own
    env = dict(os.environ, PYTHONPATH=SRC)
    script = """
import sys, numpy as np
from spectral_abstraction import spectral
def solve(lapack, n):
    A = np.random.default_rng(n).normal(size=(n, n))
    lwork, liwork, info = lapack.dsyevr_lwork(n, lower=1)
    out = lapack.dsyevr(A + A.T, compute_v=1, range="I", il=1, iu=3, lower=1, lwork=int(lwork), liwork=int(liwork))
    return b"".join(np.asarray(a).tobytes() for a in (lwork, liwork, info, *out))
sizes = (5, 64, 300)
alone = [solve(spectral._lapack(), n) for n in sizes]
print('scipy.linalg' in sys.modules)
import scipy.linalg.lapack
later = [solve(spectral._lapack(), n) for n in sizes]
for n, a, b, ref in zip(sizes, alone, later, [solve(scipy.linalg.lapack, n) for n in sizes]):
    print(n, a == ref, b == ref)
print(spectral._lapack() is scipy.linalg.lapack._flapack)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "5 True True", "64 True True", "300 True True", "True"]


def test_components_passes_do_not_load_scipy_sparse():
    # connected_components labels in numpy, so only Lanczos needs scipy.sparse
    env = dict(os.environ, PYTHONPATH=SRC)
    script = """
import sys, numpy as np, spectral_abstraction as sa
from spectral_abstraction.errors import DisconnectedGraphError
def report(step):
    print(step, 'scipy.sparse' in sys.modules)
base = sa.sbm_generate(3, 6, 0.9, 0.1, seed=5)
copy = tuple((i + 18, j + 18, w) for i, j, w in base.edges)
g = sa.graph_from_edges([f"v{i}" for i in range(36)], base.edges + copy)  # two disjoint SBMs
assert sa.recursive_bipartition(g, 4).k == 4
report('recursive_bipartition')
assert sa.p_recursive_bipartition(g, 3, sa.PLaplacianParams(p=1.5)).k == 3
report('p_recursive_bipartition')
c = np.kron(np.eye(2), np.ones((3, 3)))
sa.jacobian_graph(sa.CouplingSystem(couplings=c, linear_mask=c > 0), 0.5)
report('jacobian_graph')
try:
    sa.p_spectral_bipartition(g, sa.PLaplacianParams(p=1.5))
except DisconnectedGraphError:
    report('p_spectral_bipartition')
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "recursive_bipartition False",
        "p_recursive_bipartition False",
        "jacobian_graph False",
        "p_spectral_bipartition False",
    ]


def test_the_lapack_loader_returns_a_module_scipy_linalg_already_loaded():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import scipy.linalg.lapack; from spectral_abstraction import spectral; "
            "print(spectral._lapack() is scipy.linalg.lapack._flapack)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
