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


_DEFERRED = ("nonlinear", "hierarchy", "structfunc")


def _fresh(script: str) -> list[str]:
    """Standard output lines of `script` run in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_package_and_its_cli_load_only_the_eager_layers():
    # nonlinear, hierarchy and structfunc load on first use
    lines = _fresh(
        "import sys, spectral_abstraction, spectral_abstraction.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('spectral_abstraction.')))\n"
    )
    eager = ["cli", "errors", "fileio", "graphs", "partition", "spectral"]
    assert lines == [str([f"spectral_abstraction.{name}" for name in eager])]


def test_linear_clustering_and_the_linear_cli_commands_load_no_deferred_layer(tmp_path):
    script = f"""
import os, sys, spectral_abstraction as sa
from spectral_abstraction import cli
def report(step):
    print(step, [m for m in {_DEFERRED!r} if 'spectral_abstraction.' + m in sys.modules])
g = sa.sbm_generate(2, 8, 0.9, 0.1, seed=3)
part = sa.recursive_bipartition(g, 3)
sa.cut_metrics(g, part), sa.connectivity_profile(g, part)
report('cluster-linear')
tsv = os.path.join({str(tmp_path)!r}, 'g.tsv')
with open(tsv, 'w') as f:
    f.writelines(f"{{g.labels[i]}}\\t{{g.labels[j]}}\\t{{w!r}}\\n" for i, j, w in g.edges)
for argv in (['spectrum'], ['bipartition'], ['cluster', '--k', '3'], ['cluster', '--k', '3', '--dims', '2']):
    out = os.path.join({str(tmp_path)!r}, 'out.json')
    assert cli.main(argv + ['--input', tsv, '--output', out]) == 0
    report(' '.join(argv))
"""
    assert _fresh(script) == [
        "cluster-linear []",
        "spectrum []",
        "bipartition []",
        "cluster --k 3 []",
        "cluster --k 3 --dims 2 []",
    ]


def test_every_public_name_resolves_to_its_defining_modules_object():
    script = f"""
import importlib, sys, spectral_abstraction as sa
for name in sa.__all__:
    value = getattr(sa, name)
    if name in sa._LAZY:
        module = importlib.import_module('spectral_abstraction.' + sa._LAZY[name])
        assert value is getattr(module, name) and value.__module__ == module.__name__, name
    elif hasattr(value, '__module__') and value.__module__.startswith('spectral_abstraction'):
        assert value is getattr(sys.modules[value.__module__], name), name
for name in {_DEFERRED!r}:
    assert getattr(sa, name) is sys.modules['spectral_abstraction.' + name], name
print(sorted(set(sa._LAZY.values())))
try:
    sa.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh(script) == [
        "['hierarchy', 'nonlinear', 'structfunc']",
        "module 'spectral_abstraction' has no attribute 'no_such_name'",
    ]


def test_a_patched_layer_function_is_what_the_package_returns():
    # the package reads a deferred name from its module on every access, so a tracer's wrapper is seen
    script = """
import spectral_abstraction as sa
from spectral_abstraction import structfunc
original = structfunc.fit_fc
def patched(*args):
    return 'patched'
structfunc.fit_fc = patched
print(sa.fit_fc is patched, sa.fit_fc(None, None))
structfunc.fit_fc = original
print(sa.fit_fc is original, 'fit_fc' in vars(sa))
"""
    assert _fresh(script) == ["True patched", "True False"]
