"""CLI (``python -m repro``) tests."""

import json

import pytest

from repro.cli import main


def test_generate_and_buffer_round_trip(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    out_path = tmp_path / "solution.json"

    assert main([
        "generate", "--net", str(net_path), "--sinks", "12",
        "--positions", "80", "--library", str(lib_path),
        "--library-size", "4",
    ]) == 0
    generated = capsys.readouterr().out
    assert "wrote net" in generated and "wrote library" in generated
    assert net_path.exists() and lib_path.exists()

    assert main([
        "buffer", "--net", str(net_path), "--library", str(lib_path),
        "--algorithm", "fast", "--output", str(out_path),
    ]) == 0
    report = capsys.readouterr().out
    assert "== solution ==" in report
    assert "optimized slack" in report

    payload = json.loads(out_path.read_text())
    assert payload["algorithm"] == "fast"
    assert isinstance(payload["assignment"], dict)
    assert "slack_seconds" in payload


def test_buffer_lillis_agrees_with_fast(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    main(["generate", "--net", str(net_path), "--sinks", "8",
          "--positions", "50", "--library", str(lib_path),
          "--library-size", "3"])
    capsys.readouterr()

    slacks = {}
    for algorithm in ("fast", "lillis"):
        out_path = tmp_path / f"{algorithm}.json"
        main(["buffer", "--net", str(net_path), "--library", str(lib_path),
              "--algorithm", algorithm, "--output", str(out_path)])
        capsys.readouterr()
        slacks[algorithm] = json.loads(out_path.read_text())["slack_seconds"]
    assert slacks["fast"] == pytest.approx(slacks["lillis"], abs=1e-16)


def test_partitioned_buffer_takes_the_object_store_only(tmp_path, capsys):
    # A partitioned solve (--jobs > 1) runs on object, so another store
    # is refused up front (exit 2, nothing written), not ignored.
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    out_path = tmp_path / "solution.json"
    main(["generate", "--net", str(net_path), "--sinks", "6",
          "--positions", "40", "--library", str(lib_path),
          "--library-size", "3"])
    capsys.readouterr()
    buffer = ["buffer", "--net", str(net_path), "--library", str(lib_path),
              "--output", str(out_path)]

    assert main(buffer + ["--jobs", "2", "--backend", "soa"]) == 2
    assert "--backend soa needs --jobs 1" in capsys.readouterr().err
    assert not out_path.exists()

    assert main(buffer + ["--jobs", "2", "--backend", "object"]) == 0
    capsys.readouterr()
    partitioned = json.loads(out_path.read_text())
    assert partitioned["backend"] == "object"
    pytest.importorskip("numpy")
    assert main(buffer + ["--jobs", "1", "--backend", "soa"]) == 0
    capsys.readouterr()
    on_soa = json.loads(out_path.read_text())
    assert on_soa["backend"] == "soa"
    assert partitioned["slack_seconds"] == on_soa["slack_seconds"]
    assert partitioned["assignment"] == on_soa["assignment"]


def test_paper_pseudocode_flag(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    main(["generate", "--net", str(net_path), "--sinks", "5",
          "--positions", "30", "--library", str(lib_path),
          "--library-size", "2"])
    capsys.readouterr()
    assert main(["buffer", "--net", str(net_path), "--library", str(lib_path),
                 "--paper-pseudocode"]) == 0
    assert "fast-destructive" in capsys.readouterr().out


def test_paper_pseudocode_requires_fast(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    main(["generate", "--net", str(net_path), "--sinks", "5",
          "--positions", "30", "--library", str(lib_path),
          "--library-size", "2"])
    capsys.readouterr()
    assert main(["buffer", "--net", str(net_path), "--library", str(lib_path),
                 "--algorithm", "lillis", "--paper-pseudocode"]) == 2


def test_unknown_algorithm_fails_at_the_registry(tmp_path, capsys):
    """``--algorithm`` lists the built-ins without checking the name:
    the registry refuses an unknown one with its own message, exit 2,
    in every command that runs an algorithm."""
    from repro.core.registry import get_algorithm
    from repro.errors import AlgorithmError

    with pytest.raises(AlgorithmError) as info:
        get_algorithm("nosuch")
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    main(["generate", "--net", str(net_path), "--sinks", "3",
          "--positions", "10", "--library", str(lib_path),
          "--library-size", "2"])
    capsys.readouterr()
    for argv in (
        ["buffer", "--net", str(net_path), "--library", str(lib_path)],
        ["batch", "--nets", str(net_path), "--library", str(lib_path)],
        ["edit", "--net", str(net_path), "--library", str(lib_path),
         "--edits", str(tmp_path / "edits.json")],
    ):
        assert main([*argv, "--algorithm", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{argv[0]}: {info.value}\n"
        assert captured.out == ""


#: Every strategy module and the kernels behind them.
_STRATEGY_MODULES = (
    "repro.core.fast", "repro.core.lillis", "repro.core.van_ginneken",
    "repro.core.dp", "repro.core.buffer_ops", "repro.obs.profiler",
)

_SERVE_START_SCRIPT = """
import sys, threading, time, urllib.request
import repro.service.server as server
from repro.cli import _build_parser, main

_build_parser()
print(sorted(m for m in {modules!r} if m in sys.modules))

ports = []
start = server.BufferServer.start

async def capture(self):
    bound = await start(self)
    ports.append(bound[1])
    return bound

server.BufferServer.start = capture
threading.Thread(
    target=main, args=(["serve", "--port", "0"],), daemon=True).start()
deadline = time.monotonic() + 30
while not ports and time.monotonic() < deadline:
    time.sleep(0.01)
with urllib.request.urlopen(f"http://127.0.0.1:{{ports[0]}}/healthz") as r:
    assert r.status == 200
print(sorted(m for m in {modules!r} if m in sys.modules))
"""


def test_parser_and_serve_start_load_no_strategy():
    """Building the parser loads no strategy module or kernel, and
    neither does ``repro serve`` up to its first ``/healthz``: a
    strategy loads when a request first runs one."""
    from helpers import run_fresh_python

    proc = run_fresh_python(
        _SERVE_START_SCRIPT.format(modules=_STRATEGY_MODULES)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[]"


def test_show_tree(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    main(["generate", "--net", str(net_path), "--sinks", "4",
          "--positions", "20", "--library", str(lib_path),
          "--library-size", "2"])
    capsys.readouterr()
    main(["buffer", "--net", str(net_path), "--library", str(lib_path),
          "--show-tree"])
    assert "sink" in capsys.readouterr().out


def test_info(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    main(["generate", "--net", str(net_path), "--sinks", "6",
          "--positions", "40"])
    capsys.readouterr()
    assert main(["info", "--net", str(net_path)]) == 0
    assert "sinks (m):" in capsys.readouterr().out


def test_generate_nothing_is_an_error(capsys):
    assert main(["generate"]) == 2
    assert "nothing to do" in capsys.readouterr().err


def _batch_fixture(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    lib_path = tmp_path / "lib.json"
    main(["generate", "--net", str(net_path), "--sinks", "4",
          "--positions", "20", "--library", str(lib_path),
          "--library-size", "2"])
    capsys.readouterr()
    return net_path, lib_path


def test_batch_round_trip(tmp_path, capsys):
    net_path, lib_path = _batch_fixture(tmp_path, capsys)
    assert main(["batch", "--nets", str(net_path), str(net_path),
                 "--library", str(lib_path)]) == 0
    out = capsys.readouterr().out
    assert "2 nets in" in out


def test_batch_empty_nets_is_a_clean_error(tmp_path, capsys):
    # Regression: an empty --nets list used to fall through to the
    # solver and die with a traceback; now it is a usage error.
    _, lib_path = _batch_fixture(tmp_path, capsys)
    assert main(["batch", "--nets", "--library", str(lib_path)]) == 2
    assert "at least one net file" in capsys.readouterr().err


def test_batch_corners_expands_and_labels(tmp_path, capsys):
    net_path, lib_path = _batch_fixture(tmp_path, capsys)
    out_path = tmp_path / "batch.json"
    assert main(["batch", "--nets", str(net_path),
                 "--library", str(lib_path), "--corners", "5",
                 "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "5 nets in" in out and "corners=5" in out
    for corner in ("tt", "ff", "ss", "fs", "pvt4"):
        assert f"net.json@{corner}" in out

    payload = json.loads(out_path.read_text())
    assert payload["corners"] == 5
    labels = [entry["net"] for entry in payload["results"]]
    assert labels == [f"net.json@{c}"
                      for c in ("tt", "ff", "ss", "fs", "pvt4")]
    # The tt corner is the unscaled net: same answer as a plain batch.
    plain = tmp_path / "plain.json"
    main(["batch", "--nets", str(net_path), "--library", str(lib_path),
          "--output", str(plain)])
    capsys.readouterr()
    baseline = json.loads(plain.read_text())["results"][0]
    assert payload["results"][0]["slack_seconds"] == \
        baseline["slack_seconds"]


def test_batch_negative_corners_is_a_clean_error(tmp_path, capsys):
    net_path, lib_path = _batch_fixture(tmp_path, capsys)
    assert main(["batch", "--nets", str(net_path),
                 "--library", str(lib_path), "--corners", "-1"]) == 2
    assert "--corners must be >= 0" in capsys.readouterr().err


def test_batch_jobs_zero_is_a_clean_error(tmp_path, capsys):
    # Regression: --jobs 0 used to reach multiprocessing setup and
    # traceback; now it is rejected up front with a clear message.
    net_path, lib_path = _batch_fixture(tmp_path, capsys)
    assert main(["batch", "--nets", str(net_path),
                 "--library", str(lib_path), "--jobs", "0"]) == 2
    err = capsys.readouterr().err
    assert "--jobs must be >= 1" in err
    assert main(["batch", "--nets", str(net_path),
                 "--library", str(lib_path), "--jobs", "-2"]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_batch_missing_net_file_is_a_clean_error(tmp_path, capsys):
    net_path, lib_path = _batch_fixture(tmp_path, capsys)
    assert main(["batch", "--nets", str(net_path),
                 str(tmp_path / "missing.json"),
                 "--library", str(lib_path)]) == 2
    err = capsys.readouterr().err
    assert "not found" in err and "missing.json" in err


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    # The subprocess inherits the environment, not pytest's in-process
    # sys.path, so point it at whichever tree `repro` was imported from.
    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "buffer insertion" in proc.stdout
    # Each subcommand imports what it runs inside its handler; its
    # --help must still build from a cold start.
    for command in ("generate", "buffer", "batch", "edit", "info", "serve",
                    "replay"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command, "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert f"usage: repro {command}" in proc.stdout, command
