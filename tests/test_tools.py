"""Tests for the command-line tools (rulec, simulate)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools.rulec import main as rulec_main, parse_params
from repro.tools.simulate import main as simulate_main, parse_topology
from repro.sim import Hypercube, Mesh2D, Torus2D


class TestRulec:
    def test_compile_shipped_ruleset(self, capsys):
        assert rulec_main(["--ruleset", "route_c", "-p", "d=4"]) == 0
        out = capsys.readouterr().out
        assert "decide_dir" in out
        assert "total rule-table memory" in out

    def test_compile_file(self, tmp_path, capsys):
        f = tmp_path / "tiny.rules"
        f.write_text("""
        VARIABLE x IN 0 TO 3
        ON tick()
          IF x < 3 THEN x <- x + 1;
        END tick;
        """)
        assert rulec_main([str(f)]) == 0
        out = capsys.readouterr().out
        assert "rule base tick" in out
        # x <- x + 1 guarded by a premise compiles to the paper's
        # "conditional increment" FCFB
        assert "conditional increment" in out

    def test_registers_flag(self, capsys):
        assert rulec_main(["--ruleset", "nafta", "--registers"]) == 0
        out = capsys.readouterr().out
        assert "usable_set" in out

    def test_verify_flag(self, capsys):
        assert rulec_main(["--ruleset", "route_c", "-p", "d=3",
                           "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verify decide_dir" in out
        assert "OK" in out

    def test_no_table_flag(self, capsys):
        assert rulec_main(["--ruleset", "route_c_merged", "-p", "d=8",
                           "--no-table"]) == 0
        out = capsys.readouterr().out
        assert "decide_all" in out

    def test_syntax_error_reported(self, tmp_path, capsys):
        f = tmp_path / "broken.rules"
        f.write_text("ON f( garbage")
        assert rulec_main([str(f)]) == 1
        assert "rulec:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert rulec_main(["/nonexistent/x.rules"]) == 2

    def test_parse_params(self):
        assert parse_params(["d=6", "name=mesh"]) == {"d": 6, "name": "mesh"}
        with pytest.raises(SystemExit):
            parse_params(["bad"])


class TestSimulateCli:
    def test_parse_topology(self):
        assert isinstance(parse_topology("mesh4x6"), Mesh2D)
        assert isinstance(parse_topology("torus4x4"), Torus2D)
        assert isinstance(parse_topology("cube3"), Hypercube)
        with pytest.raises(SystemExit):
            parse_topology("ring9")

    def test_torus_is_not_plain_mesh(self):
        t = parse_topology("torus4x4")
        assert isinstance(t, Torus2D)

    def test_small_run(self, capsys):
        rc = simulate_main(["run", "--topology", "mesh4x4",
                            "--algorithm", "xy", "--load", "0.05",
                            "--cycles", "300", "--warmup", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean_latency" in out
        assert "deadlocked" in out

    def test_run_with_faults(self, capsys):
        rc = simulate_main(["run", "--topology", "mesh5x5",
                            "--algorithm", "nafta", "--load", "0.08",
                            "--cycles", "400", "--warmup", "100",
                            "--link-faults", "2", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 link faults" in out

    def test_cube_run(self, capsys):
        rc = simulate_main(["run", "--topology", "cube3",
                            "--algorithm", "route_c", "--load", "0.08",
                            "--cycles", "400", "--node-faults", "1",
                            "--seed", "2"])
        assert rc == 0
        assert "1 node faults" in capsys.readouterr().out

    def test_node_faults_beyond_topology_exit(self):
        # more faults than a connected 2x2 mesh can take: an error
        # exit, not an endless draw
        with pytest.raises(SystemExit) as exc:
            simulate_main(["run", "--topology", "mesh2x2",
                           "--node-faults", "5"])
        assert exc.value.code not in (0, None)

    def test_bad_fault_spelling(self):
        with pytest.raises(SystemExit):
            simulate_main(["run", "--fault", "10:wire:1,2"])

    def test_sweep_seeds(self, capsys):
        rc = simulate_main(["run", "--topology", "mesh4x4",
                            "--cycles", "200", "--warmup", "50",
                            "--sweep-seeds", "2", "--no-cache"])
        assert rc == 0
        assert "2 seeds" in capsys.readouterr().out

    def test_run_trace_with_fault(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = simulate_main(["run", "--topology", "mesh4x4",
                            "--load", "0.15", "--cycles", "300",
                            "--warmup", "50", "--fault-mode", "harsh",
                            "--retry-limit", "2",
                            "--fault", "150:link:5,6",
                            "--trace", str(path),
                            "--metrics-out", str(metrics), "--ascii"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 mid-flight faults" in out
        assert json.loads(path.read_text())["traceEvents"]
        assert json.loads(metrics.read_text())["samples"] > 0

    @pytest.mark.parametrize("topology", ["cube3", "torus4x4"])
    def test_campaign_rejects_non_mesh(self, topology):
        with pytest.raises(SystemExit) as exc:
            simulate_main(["campaign", "--topology", topology,
                           "--scenarios", "1"])
        assert "mesh" in str(exc.value.code)

    def test_campaign_report(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        rc = simulate_main(["campaign", "--topology", "mesh4x4",
                            "--algorithm", "updown", "--scenarios", "1",
                            "--cycles", "300", "--warmup", "50",
                            "--no-cache", "--strict",
                            "--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        for key in ("n_scenarios", "scenarios", "created_logical",
                    "delivered_logical", "delivery_rate", "dead_lettered",
                    "silent_loss", "deadlocked_scenarios",
                    "cycles_of_loss"):
            assert key in report
        assert report["n_scenarios"] == 1
        assert len(report["scenarios"][0]["timed_faults"]) == 2

    def test_shim_runs_without_pythonpath(self):
        root = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(root / "tools" / "simulate.py"), "--help"],
            capture_output=True, text=True, env=env, cwd=root, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "run" in proc.stdout and "campaign" in proc.stdout
