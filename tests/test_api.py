"""Public API dispatch tests."""

import pytest

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


def test_package_exports():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


def test_routed_solve_imports_no_parallel_or_serving_code():
    """A first in-process solve loads the router but not the parallel
    solver, the server, asyncio or the workload log (the routing
    threshold lives in routing, and the service and routing packages
    load those lazily).  The lazy names still import."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
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
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_default_path_imports_no_numpy():
    """Importing the package and the server and running a default solve
    load neither NumPy nor the ``soa`` store: they load only where
    ``soa`` or the batch axis is named."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
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
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
