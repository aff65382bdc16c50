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
