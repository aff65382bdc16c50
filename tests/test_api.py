"""Public API dispatch tests."""

import pytest

from helpers import run_fresh_python
from repro import BufferLibrary, algorithm_names, insert_buffers
from repro.errors import AlgorithmError


def test_algorithm_names_exported():
    assert set(algorithm_names()) == {"fast", "lillis", "van_ginneken"}


def test_unknown_algorithm_rejected(line_net, small_library):
    with pytest.raises(AlgorithmError):
        insert_buffers(line_net, small_library, algorithm="magic")


def test_default_is_fast(line_net, small_library):
    assert insert_buffers(line_net, small_library).stats.algorithm == "fast"


def test_options_rejected_for_lillis(line_net, small_library):
    with pytest.raises(AlgorithmError):
        insert_buffers(line_net, small_library, algorithm="lillis",
                       destructive_pruning=True)


def test_options_rejected_for_van_ginneken(line_net, single_buffer):
    with pytest.raises(AlgorithmError):
        insert_buffers(line_net, BufferLibrary([single_buffer]),
                       algorithm="van_ginneken", destructive_pruning=True)


def test_van_ginneken_via_dispatch(line_net, single_buffer):
    result = insert_buffers(line_net, BufferLibrary([single_buffer]),
                            algorithm="van_ginneken")
    assert result.stats.algorithm == "van_ginneken"


def test_result_str_and_properties(line_net, small_library):
    result = insert_buffers(line_net, small_library)
    assert "slack" in str(result)
    assert result.num_buffers == len(result.assignment)
    counts = result.buffer_counts_by_type()
    assert sum(counts.values()) == result.num_buffers
    assert result.total_cost == pytest.approx(
        sum(b.cost for b in result.assignment.values())
    )


#: Packages whose public names resolve on first access (a ``_LAZY``
#: table and a module ``__getattr__``).
_LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.tree",
    "repro.library",
    "repro.obs",
    "repro.resilience",
    "repro.timing",
    "repro.incremental",
    "repro.service",
    "repro.routing",
)

_EXPORTS_SCRIPT = """
import importlib
namespace = {{}}
exec("from {package} import *", namespace)
package = importlib.import_module("{package}")
missing = [name for name in package.__all__ if name not in namespace]
assert not missing, missing
for name in package.__all__:
    assert getattr(package, name) is namespace[name], name
try:
    package.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name resolved")
print(len(package.__all__))
"""


def test_package_exports():
    """Every lazily exported name resolves, in a fresh interpreter per
    package (``from <package> import *`` first, so an import cycle
    that only a cold start hits fails here), and an unknown name is an
    ``AttributeError``."""
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__
    for package in _LAZY_PACKAGES:
        proc = run_fresh_python(_EXPORTS_SCRIPT.format(package=package))
        assert proc.returncode == 0, (package, proc.stderr)
        assert int(proc.stdout) > 0, package


def test_routed_solve_imports_no_parallel_or_serving_code():
    """A first in-process solve loads the router but not the parallel
    solver, the server, asyncio or the workload log (the routing
    threshold lives in routing, and the service and routing packages
    load those lazily).  The lazy names still import."""
    script = (
        "import sys\n"
        "from repro import insert_buffers, paper_library\n"
        "from repro.tree.builders import two_pin_net\n"
        "insert_buffers(two_pin_net(1000.0, num_segments=4),"
        " paper_library(4))\n"
        "import repro.incremental\n"
        "assert 'repro.routing.router' in sys.modules\n"
        "print(sorted(m for m in ('repro.parallel.solver',"
        " 'repro.service.server', 'repro.service.client', 'asyncio',"
        " 'repro.routing.workload') if m in sys.modules))\n"
        "from repro.routing import WorkloadLog, read_log, replay\n"
    )
    proc = run_fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_default_path_imports_no_numpy():
    """Importing the package and the server and running a default solve
    load neither NumPy nor the ``soa`` store: they load only on a
    ``soa`` solve or a lane group dispatched onto the batch axis."""
    script = (
        "import sys\n"
        "import repro\n"
        "import repro.service.server\n"
        "from repro import insert_buffers, paper_library, two_pin_net\n"
        "insert_buffers(two_pin_net(1000.0, num_segments=4),"
        " paper_library(4))\n"
        "print(sorted(m for m in ('numpy', 'repro.core.stores.soa')"
        " if m in sys.modules))\n"
    )
    proc = run_fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: Pools, ``solve_many`` and a served process on single nets and on a
#: corner group the static rule keeps on ``object``: no lane group is
#: dispatched, so neither NumPy nor a NumPy-backed store may load.
_SINGLE_NET_SCRIPT = """
import asyncio, json, sys
from repro import (SolverPool, paper_library, random_tree_net, solve_many,
                   two_pin_net)
from repro.experiments.workloads import corner_variants
from repro.service.server import BufferServer
from repro.tree.io import library_to_dict, tree_to_dict

library = paper_library(4)
net = two_pin_net(1000.0, num_segments=4)
distinct = [random_tree_net(sinks, seed=sinks) for sinks in (3, 5, 8)]
for backend in ("auto", "object"):
    with SolverPool(library, backend=backend) as pool:
        pool.solve([net])
        pool.solve(distinct)
solve_many(distinct, library)

lib = library_to_dict(library)
corners = [tree_to_dict(v)
           for _, v in corner_variants(random_tree_net(4, seed=2), 4)]
requests = [
    ("POST", "/solve", {"net": tree_to_dict(net), "library": lib}),
    ("POST", "/solve", {"net": tree_to_dict(net), "library": lib}),
    ("POST", "/batch",
     {"nets": [tree_to_dict(t) for t in distinct], "library": lib}),
    ("POST", "/batch", {"nets": corners, "library": lib}),
    ("GET", "/stats", None),
    ("GET", "/metrics", None),
]
server = BufferServer()

async def drive():
    answers = []
    for method, path, body in requests:
        raw = b"" if body is None else json.dumps(body).encode()
        answers.append(await server._dispatch(method, path, raw))
    return answers

# /stats counts the process's pools: the served ones are the delta.
before = asyncio.run(server._dispatch("GET", "/stats", b""))[1]["batch_axis"]
answers = asyncio.run(drive())
assert [status for status, _ in answers] == [200] * len(requests), answers
assert [answers[0][1]["cached"], answers[1][1]["cached"]] == [False, True]
block = answers[4][1]["batch_axis"]
assert (block["groups"] - before["groups"],
        block["scalar_solves"] - before["scalar_solves"]) == (0, 8), block
print(sorted(m for m in ("numpy", "repro.core.stores.soa",
                         "repro.core.stores.batch_axis")
             if m in sys.modules))
"""


def test_single_net_paths_import_no_numpy():
    """A pool (``"auto"`` or ``"object"``), ``solve_many`` and the
    server's ``/solve`` miss and hit, ``/batch`` of distinct nets and
    of short corner lanes, ``/stats`` and ``/metrics`` load neither
    NumPy nor the ``soa`` store nor the lane engine: those load only
    when a lane group is dispatched onto the batch axis, or on a
    ``soa`` solve."""
    proc = run_fresh_python(_SINGLE_NET_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: Modules no served ``/healthz``, ``/solve``, ``/stats`` or
#: ``/metrics`` runs: process pools, the workload log, the session
#: engine, the timing oracle, the builders, the report printer, the
#: library generators, the partitioned solver and NumPy.
_NOT_SERVED = (
    "multiprocessing",
    "concurrent.futures.process",
    "uuid",
    "repro.routing.workload",
    "repro.incremental.engine",
    "repro.incremental.edits",
    "repro.timing.buffered",
    "repro.tree.builders",
    "repro.report",
    "repro.library.generators",
    "repro.parallel.solver",
    "numpy",
)

_SERVING_SCRIPT = """
import asyncio, sys
from repro.service.server import BufferServer

body = {body!r}.encode()
requests = [
    ("GET", "/healthz", b""),
    ("POST", "/solve", body),
    ("POST", "/solve", body),
    ("GET", "/stats", b""),
    ("GET", "/metrics", b""),
]
server = BufferServer()

async def drive():
    answers = [await server._dispatch(*request) for request in requests]
    assert [status for status, _ in answers] == [200] * 5, answers
    assert [answers[1][1]["cached"], answers[2][1]["cached"]] == [False, True]
    print(sorted(m for m in {not_served!r} if m in sys.modules))
    status, answer = await server._dispatch("POST", "/session", body)
    assert status == 200, answer
    print("repro.incremental.engine" in sys.modules)

asyncio.run(drive())
"""


def test_serving_loads_only_what_it_runs():
    """A served process imports the server and answers ``/healthz``, a
    ``/solve`` miss and hit, ``/stats`` and ``/metrics`` without
    loading any module those requests do not run; the first
    ``/session`` loads the incremental engine."""
    import json

    from repro import paper_library, random_tree_net
    from repro.tree.io import library_to_dict, tree_to_dict

    body = json.dumps({
        "net": tree_to_dict(random_tree_net(12, seed=3)),
        "library": library_to_dict(paper_library(4)),
    })
    proc = run_fresh_python(
        _SERVING_SCRIPT.format(body=body, not_served=_NOT_SERVED)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"], proc.stdout


_INLINE_POOL_SCRIPT = """
import sys
import repro
from repro import SolverPool, paper_library, solve_many, two_pin_net

library = paper_library(4)
nets = [two_pin_net(1000.0 * k, num_segments=4) for k in (1, 2)]
with SolverPool(library, jobs=1) as pool:
    pool.solve(nets)
solve_many(nets, library)
print(sorted(m for m in ("multiprocessing", "concurrent.futures.process")
             if m in sys.modules))

import multiprocessing
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from repro.errors import (AlgorithmError, DeadlineExceeded,
                          FaultInjectedError, WorkerCrashError,
                          WorkerHangError)
from repro.resilience import SUPERVISABLE_ERRORS, is_supervisable

assert SUPERVISABLE_ERRORS == (
    BrokenProcessPool, multiprocessing.TimeoutError, FuturesTimeoutError,
    TimeoutError, EOFError, OSError, FaultInjectedError, WorkerCrashError,
    WorkerHangError,
)
for exc in (BrokenProcessPool(), multiprocessing.TimeoutError(),
            FuturesTimeoutError(), EOFError(), BrokenPipeError(),
            FaultInjectedError("x"), WorkerCrashError("x"),
            WorkerHangError("x")):
    assert is_supervisable(exc), exc
for exc in (DeadlineExceeded("dp.walk", 1.0), AlgorithmError("x"),
            ValueError(), KeyboardInterrupt()):
    assert not is_supervisable(exc), exc
"""


def test_inline_pool_imports_no_multiprocessing():
    """``SolverPool(jobs=1)`` and ``solve_many`` at ``jobs=1`` solve in
    the calling process and load neither ``multiprocessing`` nor
    ``concurrent.futures.process``.  The supervisor's error tuple,
    resolved on first use, is the same tuple and classifies every error
    as before."""
    proc = run_fresh_python(_INLINE_POOL_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
